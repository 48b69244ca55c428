package main

import (
	"encoding/json"
	"os"
)

// span is one timed call into a layer. Spans of one frame share its
// index as request id; the span that caused a span is its name's parent.
type span struct {
	req        uint32
	name       uint8
	class      frameClass
	start, end int64
}

// tracer records spans in memory preallocated before the traced pass and
// writes them out when the run ends.
type tracer struct {
	names   []string
	parents []int // index into names, -1 for a root
	spans   []span
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

// layer registers a span name under its parent and returns its id.
func (t *tracer) layer(name string, parent int) int {
	t.names = append(t.names, name)
	t.parents = append(t.parents, parent)
	return len(t.names) - 1
}

func (t *tracer) add(name, req int, class frameClass, start, end int64) {
	t.spans = append(t.spans, span{uint32(req), uint8(name), class, start, end})
}

// spanSummary is one layer's totals. Self time is the layer's own time
// minus what its child spans cover.
type spanSummary struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) summary() []spanSummary {
	out := make([]spanSummary, len(t.names))
	for i, n := range t.names {
		out[i].Name = n
		if p := t.parents[i]; p >= 0 {
			out[i].Parent = t.names[p]
		}
	}
	for _, s := range t.spans {
		out[s.name].Count++
		out[s.name].TotalNS += s.end - s.start
	}
	for i := range out {
		out[i].SelfNS += out[i].TotalNS
		if p := t.parents[i]; p >= 0 {
			out[p].SelfNS -= out[i].TotalNS
		}
	}
	return out
}

// write stores the layer summary and the spans of an evenly strided
// sample of requests, at most about maxSpans of them: every span of a
// 400k-frame pass would be a file larger than the capture.
func (t *tracer) write(path, workload string) error {
	const maxSpans = 50000
	stride := uint32(len(t.spans)/maxSpans + 1)
	type fileSpan struct {
		Req   uint32 `json:"req"`
		Name  string `json:"name"`
		Class string `json:"class"`
		Start int64  `json:"start_ns"`
		End   int64  `json:"end_ns"`
	}
	file := struct {
		Workload  string        `json:"workload"`
		Layers    []spanSummary `json:"layers"`
		ReqStride uint32        `json:"request_stride"`
		Spans     []fileSpan    `json:"spans"`
	}{Workload: workload, Layers: t.summary(), ReqStride: stride}
	for _, s := range t.spans {
		if s.req%stride == 0 {
			file.Spans = append(file.Spans, fileSpan{s.req, t.names[s.name], classNames[s.class], s.start, s.end})
		}
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
