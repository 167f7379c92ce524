// Package capsfix exercises capshonesty: Caps{Probes: true} registry
// entries must dispatch to a profiled kernel, and Err* sentinels must be
// wrapped with %w. The Caps/builtin shapes are local mirrors of the root
// package's registry types — the analyzer matches them structurally.
package capsfix

import (
	"errors"
	"fmt"
)

type Caps struct {
	Probes       bool
	NeedsWeights bool
}

type builtin struct {
	name string
	caps Caps
	run  func() int
}

func runProfiled() int { return 1 }
func runPlain() int    { return 0 }

var registry = []builtin{
	{name: "good", caps: Caps{Probes: true}, run: func() int { return runProfiled() }},
	{name: "bad", caps: Caps{Probes: true}, run: runPlain}, // want `never dispatches to a profiled kernel`
	{name: "noprobes", caps: Caps{}, run: runPlain},
}

// makeRun mirrors the builder shape: the registry element is a
// call that returns the run closure.
func makeRun() func() int {
	return func() int { return runProfiled() }
}

func plainBuilder() func() int {
	return func() int { return runPlain() }
}

var distCaps = Caps{Probes: true}

var distRegistry = []builtin{
	{"dist-good", Caps{Probes: true}, makeRun()},
	{"dist-bad", distCaps, plainBuilder()}, // want `never dispatches to a profiled kernel`
}

var ErrNeedsWeights = errors.New("needs weights")

func wrapGood(name string) error {
	return fmt.Errorf("algo %s: %w", name, ErrNeedsWeights)
}

func wrapBad(name string) error {
	return fmt.Errorf("algo %s: %v", name, ErrNeedsWeights) // want `sentinel error ErrNeedsWeights passed to fmt.Errorf with %v`
}

func wrapAllowed(name string) error {
	//pushpull:allow capshonesty legacy text-only path, callers match on message
	return fmt.Errorf("algo %s: %v", name, ErrNeedsWeights)
}

// notSentinel: local error values are not sentinels.
func notSentinel(name string) error {
	errLocal := errors.New("local")
	return fmt.Errorf("algo %s: %v", name, errLocal)
}
