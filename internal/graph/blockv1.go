package graph

// The retired v1 block format, known here only to convert a store's old
// files: a 40-byte header (magic "PPBK", version 1, flags as the binary
// CSR's bits 0 and 1, blockVerts; n, arcs, numBlocks as u64), the
// (n+1)×u64 offsets, directed files' n×u64 out-degrees, a
// (numBlocks+1)×u64 index, then per block its arcs (i32) and, when
// weighted, their weights (f32), padded to 8 bytes.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// LegacyBlockExt is the file suffix of the v1 block format.
const LegacyBlockExt = ".blk"

// ConvertLegacyBlock writes the v1 block file at path to w as the
// pull-view binary CSR of the same graph. It streams the offsets, each
// block's arcs, each block's weights and the out-degrees, never holding
// the arcs in memory. A header v1 would have refused, or a size other
// than the offsets imply, fails with an error naming it.
func ConvertLegacyBlock(w io.Writer, path string) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("graph: v1 block file: %w", err)
	}
	defer f.Close()
	defer func() {
		if err != nil {
			err = fmt.Errorf("graph: v1 block file %s: %w", path, err)
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := uint64(st.Size())
	var hdr [40]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("truncated header: %w", err)
	}
	le := binary.LittleEndian
	flags, bv := le.Uint32(hdr[8:]), uint64(le.Uint32(hdr[12:]))
	n, m, numBlocks := le.Uint64(hdr[16:]), le.Uint64(hdr[24:]), le.Uint64(hdr[32:])
	switch {
	case le.Uint32(hdr[0:]) != 0x4b425050: // "PPBK"
		return fmt.Errorf("bad magic %#x (not a v1 block file)", le.Uint32(hdr[0:]))
	case le.Uint32(hdr[4:]) != 1:
		return fmt.Errorf("version %d, not 1", le.Uint32(hdr[4:]))
	case flags&^uint32(csrFlagWeighted|csrFlagDirected) != 0:
		return fmt.Errorf("unknown flag bits %#x", flags)
	case bv == 0 || bv%64 != 0 || bv > math.MaxInt32:
		return fmt.Errorf("block size %d is not a positive multiple of 64 within int32", bv)
	case n > math.MaxInt32 || 8*(n+1) > size || m > size/4:
		return fmt.Errorf("%d vertices and %d arcs cannot fit in %d bytes", n, m, size)
	case numBlocks != (n+bv-1)/bv:
		return fmt.Errorf("%d blocks recorded, %d vertices need %d", numBlocks, n, (n+bv-1)/bv)
	}
	offsets := make([]int64, n+1)
	if err := readLE(f, rawBytes(offsets), 8, "offsets"); err != nil {
		return err
	}
	if err := checkOffsets(offsets, int64(m)); err != nil {
		return err
	}
	halves := 1 // a segment's arcs, then its weights when weighted
	if flags&csrFlagWeighted != 0 {
		halves = 2
	}
	// The segments follow the out-degrees and the index, in block order:
	// seg[b] is where block b's arcs start, and the last must end the file.
	pos := 40 + 8*int64(n+1) + 8*int64(numBlocks+1)
	if flags&csrFlagDirected != 0 {
		pos += 8 * int64(n)
	}
	seg, arcs := make([]int64, numBlocks), make([]int64, numBlocks)
	for b := range numBlocks {
		seg[b], arcs[b] = pos, 4*(offsets[min(n, (b+1)*bv)]-offsets[b*bv])
		pos = (pos + int64(halves)*arcs[b] + 7) &^ 7
	}
	if pos != int64(size) {
		return fmt.Errorf("%d bytes on disk, the offsets imply %d", size, pos)
	}
	out := csrHeader(flags|csrFlagPullView, uint32(n), m)
	if _, err := w.Write(out[:]); err != nil {
		return err
	}
	if err := writeLE(w, rawBytes(offsets), 8); err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	copyAt := func(at, k int64) error {
		_, err := io.CopyBuffer(w, io.NewSectionReader(f, at, k), buf)
		return err
	}
	for half := range halves {
		for b := range seg {
			if err := copyAt(seg[b]+int64(half)*arcs[b], arcs[b]); err != nil {
				return err
			}
		}
	}
	if flags&csrFlagDirected != 0 {
		return copyAt(40+8*int64(n+1), 8*int64(n))
	}
	return nil
}
