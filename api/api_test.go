package api

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"pushpull"
)

// TestToOptionsRanges: a vertex id that does not fit pushpull.V and a
// timeout_ms whose nanoseconds overflow are refused with an error naming
// the field, instead of wrapping to vertex 0 or a negative timeout; the
// largest values that do fit are accepted unchanged.
func TestToOptionsRanges(t *testing.T) {
	for _, c := range []struct {
		body, field string
	}{
		{`{"source":4294967296}`, `"source"`},
		{`{"source":4294967299}`, `"source"`},
		{`{"source":-1}`, `"source"`},
		{`{"sources":[4294967296]}`, `"sources[0]"`},
		{`{"sources":[1,2,2147483648]}`, `"sources[2]"`},
		{`{"timeout_ms":9223372036855}`, `"timeout_ms"`},
		{`{"timeout_ms":9223372036854775807}`, `"timeout_ms"`},
	} {
		o := decodeOptions(t, c.body)
		if _, err := o.ToOptions(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: ToOptions error %v, want one naming %s", c.body, err, c.field)
		}
	}

	o := decodeOptions(t, `{"source":2147483647,"sources":[0,2147483647],"timeout_ms":9223372036854}`)
	opts, err := o.ToOptions()
	if err != nil {
		t.Fatalf("largest representable values refused: %v", err)
	}
	var cfg pushpull.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Source != math.MaxInt32 || !slices.Equal(cfg.Sources, []pushpull.V{0, math.MaxInt32}) {
		t.Errorf("source %d, sources %v: the boundary ids did not survive", cfg.Source, cfg.Sources)
	}
}

func decodeOptions(t testing.TB, body string) RunOptions {
	t.Helper()
	var o RunOptions
	if err := json.Unmarshal([]byte(body), &o); err != nil {
		t.Fatal(err)
	}
	return o
}

// FuzzRunOptions decodes arbitrary bytes the way the serving front does
// (unknown fields refused) and lowers them with ToOptions. A rejected
// request must come back as an error, never a panic; an accepted one,
// applied to a zero Config, must carry every requested field exactly —
// nothing truncated, wrapped or dropped. An empty "sources" list counts as
// absent: it is omitted on the wire, so no client can send it.
func FuzzRunOptions(f *testing.F) {
	for _, seed := range []string{
		`{"source":4294967296}`,
		`{"source":4294967299}`,
		`{"sources":[4294967296]}`,
		`{"timeout_ms":9223372036855}`,
		`{"direction":"pull","threads":4,"iterations":20,"max_iters":7,"source":3,"sources":[0,1,2],` +
			`"delta":0.5,"damping":0.85,"partitions":8,"partition_aware":true,"out_of_core":true,"ranks":16,"timeout_ms":100}`,
		`{"direction":"sideways"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var o RunOptions
		if err := dec.Decode(&o); err != nil {
			return
		}
		opts, err := o.ToOptions()
		if err != nil {
			if opts != nil {
				t.Fatalf("rejected %s but returned %d options", body, len(opts))
			}
			return
		}
		var cfg pushpull.Config
		for _, opt := range opts {
			opt(&cfg)
		}
		dir := map[string]pushpull.Direction{"": pushpull.Auto, "auto": pushpull.Auto, "push": pushpull.Push, "pull": pushpull.Pull}
		if d, ok := dir[o.Direction]; !ok || cfg.Direction != d {
			t.Errorf("direction %q accepted as %v", o.Direction, cfg.Direction)
		}
		if cfg.Threads != o.Threads || cfg.Iterations != o.Iterations || cfg.MaxIters != o.MaxIters ||
			cfg.Partitions != o.Partitions || cfg.Ranks != o.Ranks {
			t.Errorf("counts %+v lowered to threads %d, iterations %d, max_iters %d, partitions %d, ranks %d",
				o, cfg.Threads, cfg.Iterations, cfg.MaxIters, cfg.Partitions, cfg.Ranks)
		}
		if int(cfg.Source) != o.Source {
			t.Errorf("source %d lowered to %d", o.Source, cfg.Source)
		}
		if len(cfg.Sources) != len(o.Sources) {
			t.Fatalf("%d sources lowered to %d", len(o.Sources), len(cfg.Sources))
		}
		for i, v := range cfg.Sources {
			if int(v) != o.Sources[i] {
				t.Errorf("sources[%d] = %d lowered to %d", i, o.Sources[i], v)
			}
		}
		if cfg.Delta != o.Delta {
			t.Errorf("delta %v lowered to %v", o.Delta, cfg.Delta)
		}
		if (o.Damping != nil) != cfg.DampingSet || (o.Damping != nil && math.Float64bits(*o.Damping) != math.Float64bits(cfg.Damping)) {
			t.Errorf("damping %v lowered to %v (set %v)", o.Damping, cfg.Damping, cfg.DampingSet)
		}
		if cfg.PartitionAware != o.PartitionAware || cfg.OutOfCore != o.OutOfCore {
			t.Errorf("flags partition_aware %v, out_of_core %v lowered to %v, %v",
				o.PartitionAware, o.OutOfCore, cfg.PartitionAware, cfg.OutOfCore)
		}
	})
}
