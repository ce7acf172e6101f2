package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindStudy spanKind = iota
	kindSimulation
	kindEmit
	kindDial
	kindSend
	kindRecv
	kindAssemble
	numKinds
)

var kindNames = [numKinds]string{"study", "simulation", "emit", "dial", "send", "recv", "assemble"}

// noParent marks a root span; noTrace a span without a (group, step) id.
const (
	noParent = -1
	noTrace  = -1
)

// span is one timed interval. Times are nanoseconds since the buffer's
// epoch. group and step form the trace id shared by the emit, send and recv
// spans of one timestep of one group.
type span struct {
	start, end  int64
	parent      int32
	group, step int32
	kind        spanKind
}

// spanBuf is a preallocated, lock-free span store: recording a span is one
// atomic add and a slot write, so tracing does not allocate on the hot path.
// Spans beyond the capacity are counted and dropped.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{epoch: time.Now(), spans: make([]span, capacity)}
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// open reserves a slot for a span whose end is not known yet; it returns -1
// when the buffer is full.
func (b *spanBuf) open(kind spanKind, parent int32, group, step int, start int64) int32 {
	i := b.next.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return -1
	}
	b.spans[i] = span{start: start, end: start, parent: parent, group: int32(group), step: int32(step), kind: kind}
	return int32(i)
}

// close sets the end of a span opened with open.
func (b *spanBuf) close(i int32, end int64) {
	if i >= 0 {
		b.spans[i].end = end
	}
}

// add records a finished span.
func (b *spanBuf) add(kind spanKind, parent int32, group, step int, start, end int64) {
	b.close(b.open(kind, parent, group, step, start), end)
}

// recorded returns the spans written so far. Call it only after every
// recording goroutine has finished.
func (b *spanBuf) recorded() []span {
	n := b.next.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// selfTimes returns, per kind, the summed self time of the spans: each
// span's duration minus the part of it that its children cover. Children
// that overlap each other are counted once (their union), and a child's
// part outside its parent is ignored.
func selfTimes(spans []span) [numKinds]time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out [numKinds]time.Duration
	for i, s := range spans {
		out[s.kind] += time.Duration(s.end - s.start - covered(s.start, s.end, children[int32(i)]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as tab-separated lines:
// index, kind, parent, group, step, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tkind\tparent\tgroup\tstep\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, kindNames[s.kind], s.parent, s.group, s.step, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
