package jobs

// PayloadPath exposes the payload file naming to the external tests.
var PayloadPath = (*DiskJobStore).payloadPath
