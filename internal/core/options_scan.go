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
func (c *optionsScanCorrelator) onExpire(now, _ time.Duration) {
	for src, r := range c.sources {
		if now-r.last > optionsScanWindow {
			delete(c.sources, src)
		}
	}
}

// scanEntry is one source's sweep window as a checkpoint carries it.
type scanEntry struct {
	src netip.Addr
	rec *optionsScanRecord
}

// walkScanEntries walks sweep windows, each one's probed dialog set as a
// sorted list.
func walkScanEntries(cd *codec, entries *[]scanEntry) {
	seq(cd, entries, func(cd *codec, e *scanEntry) {
		var dialogs []string
		if cd.enc {
			for d := range e.rec.dialogs {
				dialogs = append(dialogs, d)
			}
			sort.Strings(dialogs)
		} else {
			e.rec = &optionsScanRecord{}
		}
		cd.addr(&e.src)
		cd.dur(&e.rec.start)
		cd.dur(&e.rec.last)
		cd.bool(&e.rec.fired)
		seq(cd, &dialogs, (*codec).str)
		if !cd.enc {
			e.rec.dialogs = make(map[string]struct{}, len(dialogs))
			for _, d := range dialogs {
				e.rec.dialogs[d] = struct{}{}
			}
		}
	})
}

// scanEntries lists sweep windows in source order.
func scanEntries(sources map[netip.Addr]*optionsScanRecord) []scanEntry {
	entries := make([]scanEntry, 0, len(sources))
	for src, r := range sources {
		entries = append(entries, scanEntry{src: src, rec: r})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].src.Compare(entries[j].src) < 0 })
	return entries
}

// scanSources rebuilds the source map from decoded entries.
func scanSources(entries []scanEntry) map[netip.Addr]*optionsScanRecord {
	sources := make(map[netip.Addr]*optionsScanRecord, len(entries))
	for _, e := range entries {
		sources[e.src] = e.rec
	}
	return sources
}

// decodeScanBlob decodes a whole options-scan state blob.
func decodeScanBlob(blob []byte) (map[netip.Addr]*optionsScanRecord, error) {
	var entries []scanEntry
	err := decodeAll(blob, "options-scan state", func(cd *codec) { walkScanEntries(cd, &entries) })
	return scanSources(entries), err
}

func encodeScanBlob(sources map[netip.Addr]*optionsScanRecord) []byte {
	entries := scanEntries(sources)
	return encodeAll(func(cd *codec) { walkScanEntries(cd, &entries) })
}

// walkState walks the per-source sweep windows; the returned closure
// installs decoded ones.
func (c *optionsScanCorrelator) walkState(cd *codec) func() {
	var entries []scanEntry
	if cd.enc {
		entries = scanEntries(c.sources)
	}
	walkScanEntries(cd, &entries)
	return func() {
		clear(c.sources)
		for src, r := range scanSources(entries) {
			c.sources[src] = r
		}
	}
}

// mergeState folds shard-local sweep blobs into one global blob
// (stateSharder). Route pinning keeps each source on one shard, so the
// maps are disjoint in a healthy capture; overlaps — possible after a
// degraded capture — union conservatively.
func (c *optionsScanCorrelator) mergeState(blobs [][]byte) ([]byte, error) {
	merged := make(map[netip.Addr]*optionsScanRecord)
	for _, blob := range blobs {
		recs, err := decodeScanBlob(blob)
		if err != nil {
			return nil, err
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
	return encodeScanBlob(merged), nil
}

// filterState keeps only the sources whose routing key ("scan:" + source
// IP — the key sipRouteKey pins) passes keep (stateSharder).
func (c *optionsScanCorrelator) filterState(blob []byte, keep func(routeKey string) bool) ([]byte, error) {
	recs, err := decodeScanBlob(blob)
	if err != nil {
		return nil, err
	}
	for src := range recs {
		if !keep("scan:" + src.String()) {
			delete(recs, src)
		}
	}
	return encodeScanBlob(recs), nil
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
