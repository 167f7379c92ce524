package main

import (
	"strconv"
	"sync"
	"time"
)

// The yardstick: a fixed piece of the benchmark's own work, timed between
// operations, against which every reported time is calibrated.
//
// The machines this runs on are shared. A neighbour on the sibling
// hyperthread or in the last-level cache slows throughput-bound and
// memory-bound code by 20-40 % for tens of seconds at a time — longer
// than a run, so no choice of percentile inside a run removes it — while
// a dependent ALU chain next to it does not move at all. README.md has
// the measurement: forty 10-second windows of identical pull-pr runs
// spread 23 % raw and 7 % once each window is divided by the yardstick
// measured inside it; JSON encoding 20 % and 3 %.
//
// So a reported time is the measured time × yardRefMS ÷ (the yardstick's
// time measured beside it): milliseconds on a machine on which the
// yardstick takes yardRefMS. The constant is near the yardstick's time on
// the builder's machine at its quietest (1.2 ms one lane alone, 1.55 ms
// two side by side), so that calibrated numbers read like the measured
// ones; only their ratios between runs matter. The calibration is the
// benchmark's code only — nothing under test runs in it — so parent and
// change are scaled by the same rule.
//
// Its two halves are the two kinds of work the stack's hot paths do:
// dependent-free random reads over a table well beyond the L2 (the pull
// kernels' rank gathers) and shortest float formatting (the encoding of
// a reply).
const (
	yardRefMS   = 1.4
	yardTable   = 1 << 21 // uint32 entries per lane: 8 MiB
	yardReads   = 100_000
	yardFormats = 10_000
	yardShare   = 0.05 // of an operation's time goes to the yardsticks after it
)

type yardstick struct {
	lanes []*yardLane // one per CPU
	least int         // readings per call of during, at least
}

// yardLane is one goroutine's table and buffer.
type yardLane struct {
	table          []uint32
	buf            []byte
	reads, formats int
	sink           uint64 // keeps the loops' results alive
}

// newYardstick makes a yardstick of one lane per CPU. Work under test
// runs on whichever CPU the scheduler picks, or on all of them at once
// (the library workloads' kernel threads), and each CPU has its own
// neighbours: the lanes run side by side and the reading is their mean.
//
// A smoke run's yardstick is a token, a hundredth of the work and one
// reading where a measured run takes three or more.
func newYardstick(lanes int, smoke bool) *yardstick {
	y, shrink := &yardstick{least: 3}, 1
	if smoke {
		y.least, shrink = 1, 100
	}
	for l := 0; l < lanes; l++ {
		lane := &yardLane{
			table: make([]uint32, yardTable), buf: make([]byte, 0, 32*yardFormats),
			reads: yardReads / shrink, formats: yardFormats / shrink,
		}
		for i := range lane.table {
			lane.table[i] = uint32(i) * 2654435761
		}
		y.lanes = append(y.lanes, lane)
	}
	return y
}

func (l *yardLane) once() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	var sum uint32
	for i := 0; i < l.reads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += l.table[x&(yardTable-1)]
	}
	buf := l.buf[:0]
	for i := 0; i < l.formats; i++ {
		buf = strconv.AppendFloat(buf, 1/float64(i+3), 'g', -1, 64)
	}
	l.sink += uint64(sum) + uint64(len(buf))
	return ms(time.Since(start))
}

// once runs every lane at the same time and returns the mean of their
// times, in ms.
func (y *yardstick) once() float64 {
	took := make([]float64, len(y.lanes))
	var wg sync.WaitGroup
	for i, lane := range y.lanes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			took[i+1] = lane.once()
		}()
	}
	took[0] = y.lanes[0].once()
	wg.Wait()
	var sum float64
	for _, t := range took {
		sum += t
	}
	return sum / float64(len(took))
}

// during runs the yardstick for about yardShare of d, at least y.least
// times, and returns the median.
func (y *yardstick) during(d time.Duration) float64 {
	var samples []float64
	for budget := yardShare * ms(d); len(samples) < y.least || samples[0]*float64(len(samples)) < budget && len(samples) < 64; {
		samples = append(samples, y.once())
	}
	return median(samples)
}
