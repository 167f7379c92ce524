package cluster

// OriginToken exposes a worker's origin token to the external tests.
var OriginToken = originToken
