package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// probe times the program's layers from outside: every wrapper the
// benchmark puts around a call into a layer opens a frame on a stack,
// so a layer's self time is its inclusive time minus the frames nested
// inside it. A nil *probe is inert — the untraced runs carry one — so
// wrappers call it unconditionally.
type probe struct {
	epoch  time.Time
	stack  []frame
	incl   map[string]time.Duration
	self   map[string]time.Duration
	calls  map[string]int64
	spans  []wrapSpan
	nextID uint64
}

// maxSpans caps the in-memory span dump; later frames still count
// towards the layer totals. Per-advance monitor and oracle frames are
// never dumped: a run has tens of thousands.
const maxSpans = 200_000

type frame struct {
	layer string
	id    uint64
	start time.Time
	child time.Duration
}

// wrapSpan is one wrapper frame as written to the JSONL dump.
type wrapSpan struct {
	Src     string  `json:"src"`
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"`
	WallUS  float64 `json:"wall_us"`
	SelfUS  float64 `json:"self_us"`
}

func newProbe() *probe {
	return &probe{
		epoch: time.Now(),
		incl:  map[string]time.Duration{},
		self:  map[string]time.Duration{},
		calls: map[string]int64{},
	}
}

// enter opens a frame for layer.
func (p *probe) enter(layer string) {
	if p == nil {
		return
	}
	p.nextID++
	p.stack = append(p.stack, frame{layer: layer, id: p.nextID, start: time.Now()})
}

// exit closes the innermost frame.
func (p *probe) exit() {
	if p == nil {
		return
	}
	n := len(p.stack) - 1
	f := p.stack[n]
	p.stack = p.stack[:n]
	d := time.Since(f.start)
	p.incl[f.layer] += d
	p.self[f.layer] += d - f.child
	p.calls[f.layer]++
	var parent uint64
	if n > 0 {
		p.stack[n-1].child += d
		parent = p.stack[n-1].id
	}
	if len(p.spans) < maxSpans && !strings.HasPrefix(f.layer, "monitor") && !strings.HasPrefix(f.layer, "oracle.audit") {
		p.spans = append(p.spans, wrapSpan{
			Src: "wrap", ID: f.id, Parent: parent, Layer: f.layer,
			StartUS: float64(f.start.Sub(p.epoch).Nanoseconds()) / 1e3,
			WallUS:  float64(d.Nanoseconds()) / 1e3,
			SelfUS:  float64((d - f.child).Nanoseconds()) / 1e3,
		})
	}
}

// span runs fn inside a frame for layer.
func (p *probe) span(layer string, fn func()) {
	p.enter(layer)
	fn()
	p.exit()
}

// credit books an externally measured duration (an obs span nested in
// a wrapper frame) as a layer of its own, moving it out of the
// enclosing layer's self time.
func (p *probe) credit(layer, from string, d time.Duration) {
	if p == nil {
		return
	}
	p.self[layer] += d
	p.incl[layer] += d
	p.calls[layer]++
	p.self[from] -= d
}

func (p *probe) selfSeconds(layer string) float64 {
	if p == nil {
		return 0
	}
	return p.self[layer].Seconds()
}

func (p *probe) inclSeconds(layer string) float64 {
	if p == nil {
		return 0
	}
	return p.incl[layer].Seconds()
}

// table renders the per-layer self-time table, busiest layer first.
func (p *probe) table(w io.Writer, wall time.Duration) {
	if p == nil {
		return
	}
	layers := make([]string, 0, len(p.self))
	for l := range p.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if p.self[layers[i]] != p.self[layers[j]] {
			return p.self[layers[i]] > p.self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "%-22s %10s %10s %7s %10s\n", "layer", "self_s", "incl_s", "self%", "calls")
	var sum time.Duration
	for _, l := range layers {
		sum += p.self[l]
		fmt.Fprintf(w, "%-22s %10.3f %10.3f %6.1f%% %10d\n", l, p.self[l].Seconds(), p.incl[l].Seconds(),
			100*p.self[l].Seconds()/wall.Seconds(), p.calls[l])
	}
	fmt.Fprintf(w, "%-22s %10.3f %10s %6.1f%%\n", "(untracked)", (wall - sum).Seconds(), "", 100*(wall-sum).Seconds()/wall.Seconds())
	fmt.Fprintf(w, "%-22s %10.3f\n", "wall", wall.Seconds())
}

// writeSpans dumps the wrapper spans followed by extra JSONL records
// (the program's own obs spans).
func (p *probe) writeSpans(w io.Writer, extra func(*json.Encoder) error) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if p != nil {
		for i := range p.spans {
			if err := enc.Encode(&p.spans[i]); err != nil {
				return err
			}
		}
	}
	if extra != nil {
		if err := extra(enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}
