package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"scidive/internal/sip"
)

// Thresholds are local to this module by design: the worked example of
// adding a correlator must not widen GenConfig or touch any other file's
// configuration surface.
const (
	// optionsScanThreshold is how many distinct dialogs one source may
	// probe with OPTIONS inside the window before the scan event fires.
	optionsScanThreshold = 5
	// optionsScanWindow bounds the sweep: the per-source dialog count
	// resets when probes pause longer than this.
	optionsScanWindow = 10 * time.Second
)

// optionsScanCorrelator detects cross-dialog SIP OPTIONS sweeps: one
// source probing many dialogs in a short window is enumerating the
// proxy's extensions or harvesting capability banners, the VoIP analogue
// of a port scan. Each probe arrives on its own Call-ID, so the state is
// per source, not per session — which makes this module the worked
// example for correlators with cross-dialog state: it pins every OPTIONS
// dialog to the prober's shard via sipRouteKey ("scan:" + source IP), so
// shard-local counting remains serial-equivalent with no router-side
// hint machinery.
//
// This module was added to the registry without editing any existing
// correlator — the extensibility proof for the pluggable architecture
// (see README.md for the walkthrough).
type optionsScanCorrelator struct {
	sources map[netip.Addr]*optionsScanRecord
}

// optionsScanRecord counts distinct probed dialogs per source window.
type optionsScanRecord struct {
	start   time.Duration
	last    time.Duration
	dialogs map[string]struct{}
	fired   bool
}

func newOptionsScanCorrelator() *optionsScanCorrelator {
	return &optionsScanCorrelator{sources: make(map[netip.Addr]*optionsScanRecord)}
}

func (c *optionsScanCorrelator) Name() string          { return "options-scan" }
func (c *optionsScanCorrelator) Protocols() []Protocol { return []Protocol{ProtoSIP} }

// sipRouteKey pins OPTIONS dialogs to the probing source so the
// per-source sweep state colocates on one shard across Call-IDs.
func (c *optionsScanCorrelator) sipRouteKey(m *sip.Message, out sipOutcome, src netip.AddrPort) (string, bool) {
	if !m.IsRequest() || m.Method != sip.MethodOptions {
		return "", false
	}
	return "scan:" + src.Addr().String(), true
}

// onExpire prunes sources whose window lapsed; Process would reset them
// on their next probe anyway, so pruning never changes the event stream.
func (c *optionsScanCorrelator) onExpire(now time.Duration, sessionsRemaining int) {
	for src, r := range c.sources {
		if now-r.last > optionsScanWindow {
			delete(c.sources, src)
		}
	}
}

// snapshotState serializes the per-source sweep windows in source order,
// each with its probed dialog set sorted.
func (c *optionsScanCorrelator) snapshotState(w *snapWriter) {
	writeScanSources(w, c.sources)
}

// decodeState decodes sweep windows; the returned closure installs them.
func (c *optionsScanCorrelator) decodeState(r *snapReader) (func(), error) {
	recs := readScanSources(r)
	if r.err != nil {
		return nil, r.err
	}
	return func() {
		clear(c.sources)
		for src, rec := range recs {
			c.sources[src] = rec
		}
	}, nil
}

// writeScanSources serializes a source → sweep-record map in source order,
// each record's probed dialog set sorted.
func writeScanSources(w *snapWriter, sources map[netip.Addr]*optionsScanRecord) {
	srcs := make([]netip.Addr, 0, len(sources))
	for src := range sources {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Compare(srcs[j]) < 0 })
	w.u32(uint32(len(srcs)))
	for _, src := range srcs {
		r := sources[src]
		w.addr(src)
		w.dur(r.start)
		w.dur(r.last)
		w.bool(r.fired)
		dialogs := make([]string, 0, len(r.dialogs))
		for d := range r.dialogs {
			dialogs = append(dialogs, d)
		}
		sort.Strings(dialogs)
		w.u32(uint32(len(dialogs)))
		for _, d := range dialogs {
			w.str(d)
		}
	}
}

// readScanSources decodes the writeScanSources layout (errors stick to r).
func readScanSources(r *snapReader) map[netip.Addr]*optionsScanRecord {
	n := r.count()
	recs := make(map[netip.Addr]*optionsScanRecord, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		src := r.addrv()
		rec := &optionsScanRecord{
			start:   r.dur(),
			last:    r.dur(),
			fired:   r.boolv(),
			dialogs: make(map[string]struct{}),
		}
		nd := r.count()
		for j := 0; j < nd && r.err == nil; j++ {
			rec.dialogs[r.strv()] = struct{}{}
		}
		recs[src] = rec
	}
	return recs
}

// mergeState folds shard-local sweep blobs into one global blob
// (stateSharder). Route pinning keeps each source on one shard, so the
// maps are disjoint in a healthy capture; overlaps — possible after a
// degraded capture — union conservatively.
func (c *optionsScanCorrelator) mergeState(blobs [][]byte) ([]byte, error) {
	merged := make(map[netip.Addr]*optionsScanRecord)
	for _, blob := range blobs {
		r := &snapReader{buf: blob}
		recs := readScanSources(r)
		if r.err == nil && !r.done() {
			r.fail("core: snapshot corrupt (%d trailing bytes in options-scan state)", r.remaining())
		}
		if r.err != nil {
			return nil, r.err
		}
		for src, rec := range recs {
			ex, ok := merged[src]
			if !ok {
				merged[src] = rec
				continue
			}
			if rec.start < ex.start {
				ex.start = rec.start
			}
			if rec.last > ex.last {
				ex.last = rec.last
			}
			ex.fired = ex.fired || rec.fired
			for d := range rec.dialogs {
				ex.dialogs[d] = struct{}{}
			}
		}
	}
	var w snapWriter
	writeScanSources(&w, merged)
	return w.buf, nil
}

// filterState keeps only the sources whose routing key ("scan:" + source
// IP — the key sipRouteKey pins) passes keep (stateSharder).
func (c *optionsScanCorrelator) filterState(blob []byte, keep func(routeKey string) bool) ([]byte, error) {
	r := &snapReader{buf: blob}
	recs := readScanSources(r)
	if r.err == nil && !r.done() {
		r.fail("core: snapshot corrupt (%d trailing bytes in options-scan state)", r.remaining())
	}
	if r.err != nil {
		return nil, r.err
	}
	for src := range recs {
		if !keep("scan:" + src.String()) {
			delete(recs, src)
		}
	}
	var w snapWriter
	writeScanSources(&w, recs)
	return w.buf, nil
}

func (c *optionsScanCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	if v.Proto != ProtoSIP || !v.Msg.IsRequest() || v.Msg.Method != sip.MethodOptions {
		return
	}
	src := v.Src.Addr()
	r := c.sources[src]
	if r == nil || v.At-r.start > optionsScanWindow {
		r = &optionsScanRecord{start: v.At, dialogs: make(map[string]struct{})}
		c.sources[src] = r
	}
	addClone(r.dialogs, v.Msg.CallID())
	r.last = v.At
	if r.fired || len(r.dialogs) < optionsScanThreshold {
		return
	}
	r.fired = true
	*evs = append(*evs, Event{
		At: v.At, Type: EvOptionsScan, Session: "scan:" + src.String(),
		Detail: fmt.Sprintf("%d distinct dialogs probed by OPTIONS from %v within %v",
			len(r.dialogs), src, v.At-r.start),
	})
}
