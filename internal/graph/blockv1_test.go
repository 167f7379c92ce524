package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConvertLegacyBlock: the repository's v1 fixture (a directed
// weighted graph of 200 vertices in four 64-vertex blocks) converts to a
// pull view the opener accepts, and every damaged header or size is
// refused with an error naming the field.
func TestConvertLegacyBlock(t *testing.T) {
	good, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy.blk"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	convert := func(b []byte) ([]byte, error) {
		src := filepath.Join(dir, "g"+LegacyBlockExt)
		if err := os.WriteFile(src, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := ConvertLegacyBlock(&out, src)
		return out.Bytes(), err
	}
	out, err := convert(good)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.csr")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	bg, err := OpenBlockCSR(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	if bg.N() != 200 || bg.M() != 1176 || !bg.Directed() || !bg.Weighted() {
		t.Fatalf("converted to n=%d m=%d directed=%v weighted=%v", bg.N(), bg.M(), bg.Directed(), bg.Weighted())
	}
	walkBlockFile(t, bg)

	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, c := range []struct {
		name, wantSub string
		body          []byte
	}{
		{"bad-magic", "bad magic", mut(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"future-version", "version 2", mut(func(b []byte) []byte { b[4] = 2; return b })},
		{"unknown-flags", "unknown flag", mut(func(b []byte) []byte { b[8] |= 4; return b })},
		{"bad-block-size", "block size 96", mut(func(b []byte) []byte { b[12] = 96; return b })},
		{"block-count", "blocks recorded", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[32:], 5); return b })},
		{"truncated-header", "truncated header", good[:20]},
		{"truncated", "the offsets imply", good[:len(good)-8]},
		{"trailing-bytes", "the offsets imply", append(append([]byte(nil), good...), 0)},
		{"offsets-end", "offsets not monotone at vertex 199", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[40+8*200:], 7); return b })},
	} {
		if _, err := convert(c.body); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.wantSub)
		}
	}
}
