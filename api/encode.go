package api

// The run-reply encoder. A reply is written in two parts:
//
//	head  {"algorithm":…,"graph":…,"summary":…,"stats":{…}
//	tail  ,"directions":[…],"ranks":[…]}
//
// The head is per request (the graph label, the hit/coalesced flags, the
// queue wait) and a few hundred bytes. The tail is a function of the
// report's payload alone and, for a vector payload, nearly all of the
// reply — so it is built through Report.Encoding, which keeps it on the
// engine's result-cache entry from that entry's first hit on. A cached
// POST /run and every async job over the same entry then write the same
// bytes instead of formatting the vector again. head+tail is byte for
// byte json.Marshal(BuildResponse(graph, rep)); the tests hold it to that.

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"pushpull"
)

// Reply is one encoded run reply: Head then Tail is the JSON document.
// Tail may be shared with other replies and is read-only.
type Reply struct {
	Head []byte
	Tail *pushpull.Encoding
}

// Len is the length of the whole document.
func (r Reply) Len() int { return len(r.Head) + len(r.Tail.Bytes) }

// Encode encodes rep as the reply to a run on graph.
func Encode(graph string, rep *pushpull.Report) Reply {
	return Reply{
		Head: AppendHead(make([]byte, 0, 384), graph, rep),
		Tail: rep.Encoding(func() []byte { return AppendTail(nil, rep) }),
	}
}

// AppendHead appends the per-request part of rep's reply: the opening
// brace through the stats object, without the payload fields and the
// closing brace AppendTail supplies.
func AppendHead(dst []byte, graph string, rep *pushpull.Report) []byte {
	dst = append(dst, `{"algorithm":`...)
	dst = appendString(dst, rep.Algorithm)
	dst = append(dst, `,"graph":`...)
	dst = appendString(dst, graph)
	dst = append(dst, `,"summary":`...)
	dst = appendString(dst, rep.Summary())
	st := StatsOf(rep)
	dst = append(dst, `,"stats":{"direction":`...)
	dst = appendString(dst, st.Direction)
	dst = append(dst, `,"iterations":`...)
	dst = strconv.AppendInt(dst, int64(st.Iterations), 10)
	dst = append(dst, `,"elapsed_ns":`...)
	dst = strconv.AppendInt(dst, st.ElapsedNS, 10)
	dst = append(dst, `,"queue_wait_ns":`...)
	dst = strconv.AppendInt(dst, st.QueueWaitNS, 10)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, st.CacheHit)
	dst = append(dst, `,"coalesced":`...)
	dst = strconv.AppendBool(dst, st.Coalesced)
	dst = append(dst, `,"canceled":`...)
	dst = strconv.AppendBool(dst, st.Canceled)
	return append(dst, '}')
}

// AppendTail appends the payload part of rep's reply — the direction
// trace and whichever vectors the payload has, each omitted when empty —
// and the closing brace.
func AppendTail(dst []byte, rep *pushpull.Report) []byte {
	ranks, counts, colors, tree := rep.Ranks(), rep.Counts(), rep.Colors(), rep.Tree()
	if dst == nil {
		size := 16 + 8*len(rep.Directions) + floatsSize(len(ranks)) + 8*(len(counts)+len(colors))
		if tree != nil {
			size += 8 * (len(tree.Parent) + len(tree.Level))
		}
		dst = make([]byte, 0, size)
	}
	if len(rep.Directions) > 0 {
		dst = append(dst, `,"directions":[`...)
		for i, d := range rep.Directions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, d.String())
		}
		dst = append(dst, ']')
	}
	if len(ranks) > 0 {
		dst = appendFloats(append(dst, `,"ranks":`...), ranks)
	}
	if len(counts) > 0 {
		dst = appendInts(append(dst, `,"counts":`...), counts)
	}
	if len(colors) > 0 {
		dst = appendInts(append(dst, `,"colors":`...), colors)
	}
	if tree != nil {
		if len(tree.Parent) > 0 {
			dst = appendInts(append(dst, `,"parents":`...), tree.Parent)
		}
		if len(tree.Level) > 0 {
			dst = appendInts(append(dst, `,"levels":`...), tree.Level)
		}
	}
	return append(dst, '}')
}

// floatsSize is the buffer a vector of n floats is given up front: a
// shortest-round-trip float64 is at most 24 bytes, plus its comma. An
// over-estimate costs address space for the encoding's lifetime; an
// under-estimate costs a copy of everything written so far.
func floatsSize(n int) int { return 25*n + 2 }

// appendFloats appends v as a JSON array in the tree's one float
// spelling: strconv's shortest 'g' form, with null for NaN and ±Inf
// (which JSON cannot carry — e.g. the +Inf distance of a vertex sssp
// never reached).
func appendFloats(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsInf(x, 0) || math.IsNaN(x) {
			dst = append(dst, "null"...)
		} else {
			dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
		}
	}
	return append(dst, ']')
}

// appendInts appends v as a JSON array of decimal integers.
func appendInts[T ~int32 | ~int64](dst []byte, v []T) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string the way encoding/json spells
// it. Text with nothing in it that encoding/json would escape — every
// name and summary the engine produces — is copied; anything else goes
// through encoding/json itself, so the two cannot disagree.
func appendString(dst []byte, s string) []byte {
	plain := utf8.ValidString(s) && !strings.ContainsAny(s, "\"\\<>&\u2028\u2029")
	for i := 0; plain && i < len(s); i++ {
		plain = s[i] >= 0x20
	}
	if !plain {
		quoted, err := json.Marshal(s)
		if err != nil { // unreachable: strings always marshal
			panic(err)
		}
		return append(dst, quoted...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
