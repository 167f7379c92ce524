// Package mp implements the Message-Passing programming model of the
// paper's distributed experiments (§6.3): the MPI_Alltoallv-style
// collective used by the distributed PageRank (and triangle counting),
// where "each process contributes to the collective by both providing a
// vector of rank updates (it pushes) and receiving updates (it pulls)" —
// the hybrid that eliminates the push/pull distinction (§7.2).
//
// Payloads are byte slices: algorithms encode their updates explicitly, so
// the byte counters reflect exactly what would cross a real wire.
package mp

import (
	"encoding/binary"
	"fmt"
	"math"

	"pushpull/internal/counters"
	"pushpull/internal/dm"
)

// Comm is a message-passing communicator over a cluster.
type Comm struct {
	cluster *dm.Cluster
	// board is the alltoallv exchange matrix: board[src][dst].
	board [][][]byte
}

// New creates a communicator over c's ranks.
func New(c *dm.Cluster) *Comm {
	m := &Comm{cluster: c, board: make([][][]byte, c.P)}
	for i := range m.board {
		m.board[i] = make([][]byte, c.P)
	}
	return m
}

// Alltoallv exchanges one byte slice per destination: send[d] goes to rank
// d, and the returned slice holds what every rank sent to the caller
// (indexed by source). The collective costs CollectiveSetup·(P−1) plus the
// byte cost of all outgoing data, and two barriers bound it like a real
// MPI collective.
func (m *Comm) Alltoallv(r *dm.Rank, send [][]byte) ([][]byte, error) {
	p := m.cluster.P
	if len(send) != p {
		return nil, fmt.Errorf("mp: alltoallv with %d buffers for %d ranks", len(send), p)
	}
	cost := m.cluster.Cost
	var bytes int64
	for d, buf := range send {
		m.board[r.ID][d] = buf
		if d != r.ID {
			bytes += int64(len(buf))
		}
	}
	r.Charge(cost.CollectiveSetup*float64(p-1) + cost.ByteCost*float64(bytes))
	r.Rec().Inc(counters.Collectives)
	r.Rec().Add(counters.Messages, int64(p-1))
	r.Rec().Add(counters.BytesSent, bytes)
	m.cluster.Barrier(r)
	out := make([][]byte, p)
	for s := 0; s < p; s++ {
		out[s] = m.board[s][r.ID]
	}
	m.cluster.Barrier(r)
	return out, nil
}

// EncodePairs packs (index, value) update pairs: 4-byte index + 8-byte
// value each, the wire format of the distributed PR and TC updates.
func EncodePairs(idx []int32, val []float64) []byte {
	buf := make([]byte, 12*len(idx))
	for i := range idx {
		binary.LittleEndian.PutUint32(buf[12*i:], uint32(idx[i]))
		binary.LittleEndian.PutUint64(buf[12*i+4:], math.Float64bits(val[i]))
	}
	return buf
}

// DecodePairs unpacks EncodePairs output.
func DecodePairs(buf []byte) (idx []int32, val []float64, err error) {
	if len(buf)%12 != 0 {
		return nil, nil, fmt.Errorf("mp: pair buffer of %d bytes", len(buf))
	}
	n := len(buf) / 12
	idx = make([]int32, n)
	val = make([]float64, n)
	for i := 0; i < n; i++ {
		idx[i] = int32(binary.LittleEndian.Uint32(buf[12*i:]))
		val[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[12*i+4:]))
	}
	return idx, val, nil
}

// EncodeCounts packs (index, count) pairs at 4+4 bytes, the TC update
// format.
func EncodeCounts(idx []int32, cnt []int32) []byte {
	buf := make([]byte, 8*len(idx))
	for i := range idx {
		binary.LittleEndian.PutUint32(buf[8*i:], uint32(idx[i]))
		binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(cnt[i]))
	}
	return buf
}

// DecodeCounts unpacks EncodeCounts output.
func DecodeCounts(buf []byte) (idx []int32, cnt []int32, err error) {
	if len(buf)%8 != 0 {
		return nil, nil, fmt.Errorf("mp: count buffer of %d bytes", len(buf))
	}
	n := len(buf) / 8
	idx = make([]int32, n)
	cnt = make([]int32, n)
	for i := 0; i < n; i++ {
		idx[i] = int32(binary.LittleEndian.Uint32(buf[8*i:]))
		cnt[i] = int32(binary.LittleEndian.Uint32(buf[8*i+4:]))
	}
	return idx, cnt, nil
}
