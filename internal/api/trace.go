package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cwcs/internal/obs"
)

// handleTrace serves the recent span ring: JSONL by default (one span
// per line, newest last), Chrome trace_event JSON with ?format=chrome
// (load it at ui.perfetto.dev). ?limit=N caps the span count. Ring
// reads are lock-free, so this endpoint deliberately skips Exec.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.Trace == nil {
		writeError(w, http.StatusNotImplemented, "tracing disabled")
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "trace: limit must be a non-negative integer, got %q", q)
			return
		}
		limit = n
	}
	spans := s.Trace.Recent(limit)
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteJSONL(w, spans)
	case "chrome":
		out, err := obs.ChromeTrace(spans)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "trace: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
	default:
		writeError(w, http.StatusBadRequest, "trace: unknown format %q (want jsonl or chrome)", format)
	}
}

// handleWatch streams span-close and loop lifecycle events as
// Server-Sent Events. Backpressure is drop-not-block: the tracer
// never waits on a subscriber, so a client that cannot keep up with
// its WatchBuffer loses the subscription (its channel closes, the
// handler disconnects it) and cwcs_watch_drops_total increments —
// the loop is never delayed by a stalled watcher.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.Trace == nil {
		writeError(w, http.StatusNotImplemented, "tracing disabled")
		return
	}
	buf := s.WatchBuffer
	if buf <= 0 {
		buf = 256
	}
	serveSSE(s, w, r, "watch",
		func() (<-chan obs.StreamEvent, string, func()) {
			sub := s.Trace.Subscribe(buf)
			return sub.C, fmt.Sprintf(`{"drops":%d}`, s.Trace.WatchDrops()), sub.Close
		},
		func(ev obs.StreamEvent) (string, []byte, bool) {
			data, err := json.Marshal(ev)
			return "span", data, err == nil
		})
}

// serveSSE is the Server-Sent Events loop behind /v1/watch and
// /v1/watch/state. Once the writer is known to stream, open subscribes
// and returns the event channel, the hello frame's data and a release
// func. Every value then renders to one flushed frame (frame's ok=false
// skips it), a comment heartbeat fills each WatchHeartbeat of silence
// (15 s by default), and a closed channel — the producer dropped this
// subscriber as too slow — ends the stream with a terminal `dropped`
// event. It returns when the client goes away.
func serveSSE[T any](s *Server, w http.ResponseWriter, r *http.Request, route string,
	open func() (events <-chan T, hello string, release func()),
	frame func(T) (event string, data []byte, ok bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "%s: streaming unsupported", route)
		return
	}
	events, hello, release := open()
	defer release()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: hello\ndata: %s\n\n", hello)
	fl.Flush()

	hb := s.WatchHeartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case v, ok := <-events:
			if !ok {
				// Say goodbye if the pipe still works and disconnect.
				fmt.Fprint(w, "event: dropped\ndata: {}\n\n")
				return
			}
			event, data, ok := frame(v)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
			fl.Flush()
		case <-ticker.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}

// writeHistograms renders the tracer's histograms in the Prometheus
// text exposition: cumulative le buckets, _sum and _count, HELP/TYPE
// emitted once per metric name (the action histogram shares one name
// across its kind label values).
func writeHistograms(b *strings.Builder, hs []*obs.Histogram) {
	last := ""
	for _, h := range hs {
		snap := h.Snapshot()
		if snap.Name != last {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", snap.Name, snap.Help, snap.Name)
			last = snap.Name
		}
		label := ""
		if snap.Label != "" {
			label = fmt.Sprintf("%s=%q,", snap.Label, snap.LabelValue)
		}
		cum := uint64(0)
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n",
				snap.Name, label, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += snap.Counts[len(snap.Bounds)]
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", snap.Name, label, cum)
		if snap.Label != "" {
			fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", snap.Name, snap.Label, snap.LabelValue, snap.Sum)
			fmt.Fprintf(b, "%s_count{%s=%q} %d\n", snap.Name, snap.Label, snap.LabelValue, snap.Count)
		} else {
			fmt.Fprintf(b, "%s_sum %g\n", snap.Name, snap.Sum)
			fmt.Fprintf(b, "%s_count %d\n", snap.Name, snap.Count)
		}
	}
}
