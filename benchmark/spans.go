package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
)

// span is one timed call into the program, recorded by the benchmark
// around the call (nothing inside the program is edited). Spans of one
// request or pass share Req; Parent is the span that caused this one
// (a request's parent is the gateway pass it rode in).
type span struct {
	Name   string
	ID     int64
	Parent int64
	Req    int64
	Batch  int
	Start  time.Time
	End    time.Time
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so timed runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

type openSpan struct {
	log *spanLog
	s   span
}

func (l *spanLog) begin(name string, parent, req int64) *openSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return &openSpan{log: l, s: span{Name: name, ID: id, Parent: parent, Req: req, Start: time.Now()}}
}

// beginAt opens a span whose start is a past instant (a request is
// timed from when it was due, not from when the generator got to it).
func (l *spanLog) beginAt(name string, start time.Time, req int64) *openSpan {
	o := l.begin(name, 0, req)
	if o != nil {
		o.s.Start = start
	}
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Now()
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, o.s)
	o.log.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// passRecorder is the serve.Inferencer the serve workload hands the
// gateway in place of *core.Run. It meters what the passes of each
// batch size sent (passes of one engine do not overlap, so the bytes
// sent while one runs are its own). On traced runs it also records one
// span per pass, with its batch size, and remembers which pass each
// pool image last rode in so a request can name its parent.
type passRecorder struct {
	cluster *core.Cluster
	run     *core.Run
	spans   *spanLog                         // nil on timed runs
	index   map[[mnist.NumPixels]float64]int // pixels → pool index; traced runs only

	mu       sync.Mutex
	lastPass map[int]int64 // pool index → span ID of the pass that served it
	bySize   []batchTally  // index: images in the pass
}

// batchTally is what the passes of one batch size sent and carried.
type batchTally struct {
	bytes  int64
	images int
}

func newPassRecorder(cluster *core.Cluster, run *core.Run, maxBatch int, spans *spanLog, pool []mnist.Image) *passRecorder {
	p := &passRecorder{cluster: cluster, run: run, spans: spans, bySize: make([]batchTally, maxBatch+1)}
	if spans != nil {
		p.index = make(map[[mnist.NumPixels]float64]int, len(pool))
		p.lastPass = make(map[int]int64, len(pool))
		for i, img := range pool {
			p.index[img.Pixels] = i
		}
	}
	return p
}

func (p *passRecorder) InferBatch(ctx context.Context, images []mnist.Image) ([]int, error) {
	s := p.spans.begin(spanGatewayPass, 0, 0)
	if s != nil {
		s.s.Batch = len(images)
		s.s.Req = s.s.ID
	}
	sent := p.cluster.Stats().Bytes
	labels, err := p.run.InferBatch(ctx, images)
	sent = p.cluster.Stats().Bytes - sent
	p.mu.Lock()
	if err == nil && len(images) < len(p.bySize) {
		p.bySize[len(images)].bytes += sent
		p.bySize[len(images)].images += len(images)
	}
	if s != nil {
		for _, img := range images {
			if i, ok := p.index[img.Pixels]; ok {
				p.lastPass[i] = s.s.ID
			}
		}
	}
	p.mu.Unlock()
	s.end()
	return labels, err
}

// passOf reports the span ID of the last pass that carried pool image i.
func (p *passRecorder) passOf(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastPass[i]
}

// tallies is a copy of the per-batch-size tallies so far.
func (p *passRecorder) tallies() []batchTally {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.bySize)
}

// fullestBatch is what the passes of the largest batch size that ran
// between readings a and b sent and carried.
func fullestBatch(a, b []batchTally) batchTally {
	for n := len(b) - 1; n > 0; n-- {
		if d := (batchTally{bytes: b[n].bytes - a[n].bytes, images: b[n].images - a[n].images}); d.images > 0 {
			return d
		}
	}
	return batchTally{}
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev). Passes and set-up calls share
// one track; each request gets a track of its own slot so overlapping
// requests do not nest.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans recorded")
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid := int64(1)
		if s.Name == spanRequest {
			tid = 100 + s.Req%poolImages
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}
		if s.Batch > 0 {
			args["batch"] = s.Batch
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid, Args: args,
			Ts:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
