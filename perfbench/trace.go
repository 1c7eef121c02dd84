package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/netsim/transport"
)

// spanKind names a layer boundary the traced run times from outside
// the simulator: the calls the benchmark makes into the public API.
type spanKind uint8

const (
	spanBuilder   spanKind = iota // the scenario builder closure
	spanPrepare                   // Network.Prepare
	spanRun                       // Network.Run
	spanConnStart                 // transport.Conn.Start, via the Control wrapper
	spanConnFate                  // transport.Conn.PacketFate, via the Control wrapper
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"builder", "prepare", "run", "conn.start", "conn.fate"}

// span is one timed call. parent is the index of the span that was open
// when it began (-1 at the top), so nested calls — a queue-drop fate
// fired from inside the Inject a delivery fate made — attribute their
// time to the right level.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps one scenario's spans in memory. It is used from a single
// goroutine: the spans opened by the benchmark itself, and the
// transport calls of stadium-ht, whose mobility keeps it on one engine.
// A nil tracer records nothing, so untraced scenarios run the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfNs is each kind's self time: its spans' durations minus the part
// their direct children cover.
func (t *tracer) selfNs() (self [numSpanKinds]int64) {
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.kind] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].kind] -= d
		}
	}
	return self
}

// durationsNs lists the inclusive durations of every span of kind k.
func (t *tracer) durationsNs(k spanKind) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write saves the spans as CSV: id, parent, name, start and end in ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedConn is the netsim.Control a traced stadium flow carries instead
// of its transport.Conn: it forwards both calls and times each one.
type timedConn struct {
	c  *transport.Conn
	tr *tracer
}

func (w timedConn) Start() {
	i := w.tr.begin(spanConnStart)
	w.c.Start()
	w.tr.end(i)
}

func (w timedConn) PacketFate(fate netsim.PacketFate, bytes int, elapsedUs float64) {
	i := w.tr.begin(spanConnFate)
	w.c.PacketFate(fate, bytes, elapsedUs)
	w.tr.end(i)
}

// counter is the probe AttachShardProbes gives each shard: it counts
// events by kind, plus the MPDUs and frames of data transmissions.
type counter struct {
	kinds      [netsim.NumEventKinds]uint64
	dataFrames uint64
	dataMpdus  uint64
}

func (c *counter) OnEvent(ev netsim.Event) {
	c.kinds[ev.Kind]++
	if ev.Kind == netsim.EvTxStart && ev.Frame == netsim.FrameData {
		c.dataFrames++
		c.dataMpdus += uint64(max(ev.Mpdus, 1))
	}
}

// sumCounters adds the shards' counts together.
func sumCounters(cs []*counter) counter {
	var out counter
	for _, c := range cs {
		for k, v := range c.kinds {
			out.kinds[k] += v
		}
		out.dataFrames += c.dataFrames
		out.dataMpdus += c.dataMpdus
	}
	return out
}

func (c counter) total() uint64 {
	var n uint64
	for _, v := range c.kinds {
		n += v
	}
	return n
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
// It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
