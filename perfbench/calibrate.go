package main

import (
	"runtime/debug"
	"time"
)

// The host this benchmark runs on shares its memory system with other
// tenants, whose load comes in phases of seconds and drifts over
// minutes. A pure compute loop did not slow down with it; random reads,
// copies and allocation slowed by up to half, and so did the pipeline:
// over ten runs of packet-6h in six minutes, even the fastest iteration
// of a run took from 1.0 s to 1.65 s (quartile spread 0.25).
//
// So each iteration runs right after one run of a fixed reference
// kernel, and its times are reported in units of that run (one "ref"):
// the pipeline's cost relative to what the host could do at that moment.
// Over the same kind of ten runs, the median of those ratios spread 0.02.
// The kernel allocates and links small objects, the kind of work the
// pipeline's slowdowns followed. It calls nothing of the program, and it
// runs with the collector off, so it does not depend on what the program
// left on the heap: no change to the program moves it.

// refNodes is the kernel's size: 1 Mi nodes of 48 bytes, 40 to 70 ms.
const refNodes = 1 << 20

// refSeconds is the kernel's typical wall time on the 2-vCPU VM the
// benchmark was tuned on. setup_s must be in seconds, so it is the set-up's
// time in refs multiplied by this fixed constant: seconds on a host where
// the kernel takes 45 ms. Raw set-up seconds followed the host's phases
// (the median of one run's set-ups moved from 2.0 to 2.5 ms on paper-day
// while the kernel moved from 44 to 52 ms); in refs they stayed within 3%.
const refSeconds = 0.045

type refNode struct {
	next *refNode
	v    [4]uint64
}

var refSink *refNode // makes the kernel's nodes escape, so they are allocated

// refKernel runs the reference kernel once and returns its wall time.
// Its nodes are garbage when it returns.
func refKernel() time.Duration {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	t0 := time.Now()
	var head *refNode
	for i := range refNodes {
		head = &refNode{next: head}
		head.v[i%4] = uint64(i)
	}
	refSink = head
	d := time.Since(t0)
	refSink = nil
	return d
}
