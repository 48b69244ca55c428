package main

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"scidive/internal/capture"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// measureLayers is the traced run: every per-layer metric of one
// workload, from isolated passes over the frames, a traced serial replay,
// the hand-composed stage pipeline, the sharded engine and one open-loop
// run per engine. It returns the spans it recorded.
func measureLayers(w *workload, v *verdict) (map[string]metricValue, *tracer) {
	m := map[string]float64{}
	tr := tracedPasses(w, m, isolatedPasses(w, m, v), v)
	shardedPasses(w, m, tr, v)
	pacedTails(w, m, v)
	out := make(map[string]metricValue, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out, tr
}

func per(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// decodeFrame is the link/IP/transport decode every engine front end
// performs, checksums included. It returns the transport payload.
func decodeFrame(frame []byte) (iph packet.IPv4Header, ipPayload, payload []byte) {
	ef, err := packet.UnmarshalEthernet(frame)
	if err != nil {
		return iph, nil, nil
	}
	iph, ipPayload, err = packet.UnmarshalIPv4(ef.Payload)
	if err != nil || iph.FragOffset != 0 || iph.MoreFragments() {
		return iph, ipPayload, nil
	}
	switch iph.Protocol {
	case packet.ProtoUDP:
		_, payload, _ = packet.PeekUDP(iph.Src, iph.Dst, ipPayload)
	case packet.ProtoTCP:
		_, payload, _ = packet.PeekTCP(iph.Src, iph.Dst, ipPayload)
	}
	return iph, ipPayload, payload
}

// isolatedPasses times each stateless or self-contained layer on its own
// share of the workload's frames: capture read, packet decode, IP and TCP
// reassembly, SIP stream framing, RTP/RTCP peeks, SIP and SDP parsing. It
// returns the nanoseconds the decode, peek and parse passes took in all,
// which is what the distiller's self time leaves out.
func isolatedPasses(w *workload, m map[string]float64, v *verdict) float64 {
	v.attempted++
	rd := capture.NewReader(bytes.NewReader(w.scap))
	frames, size := 0, 0
	start := time.Now()
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			v.fail(1, "%s: capture read: %v", w.name, err)
			break
		}
		frames++
		size += len(rec.Frame)
	}
	m["capture.read_ns_per_frame"] = per(time.Since(start), frames)
	m["capture.bytes_per_frame"] = ratio(size, frames)
	if frames != len(w.recs) {
		v.fail(1, "%s: capture reader returned %d of %d frames", w.name, frames, len(w.recs))
	}

	sink := 0
	start = time.Now()
	for _, r := range w.recs {
		_, _, payload := decodeFrame(r.Frame)
		sink += len(payload)
	}
	m["packet.decode_ns_per_frame"] = per(time.Since(start), len(w.recs))

	// Sort the payloads by what the generator knows each frame to be.
	var rtps, rtcps, sips [][]byte
	for i, r := range w.recs {
		if _, _, payload := decodeFrame(r.Frame); payload != nil {
			switch w.class[i] {
			case clsRTP:
				rtps = append(rtps, payload)
			case clsRTCP:
				rtcps = append(rtcps, payload)
			case clsSIP:
				sips = append(sips, payload)
			}
		}
	}

	// IP reassembly: every fragment through one reassembler.
	reasm := packet.NewReassembler(0)
	frags, groups := 0, 0
	var spent time.Duration
	for i, r := range w.recs {
		if w.class[i] != clsFrag {
			continue
		}
		iph, ipPayload, _ := decodeFrame(r.Frame)
		start = time.Now()
		full, body, done, err := reasm.Insert(iph, ipPayload, r.Time)
		spent += time.Since(start)
		frags++
		if err == nil && done {
			groups++
			if _, payload, err := packet.PeekUDP(full.Src, full.Dst, body); err == nil {
				sips = append(sips, payload)
			}
		}
	}
	m["packet.reasm_ns_per_frag"] = per(spent, frags)
	m["packet.reasm_groups"] = float64(groups)

	// TCP reassembly, then SIP framing of the bytes it delivers.
	type chunk struct {
		id   packet.StreamID
		data []byte
	}
	var chunks []chunk
	streams := packet.NewStreamReassembler(0)
	next := map[packet.StreamID]uint32{}
	segs, dataSegs, outOfOrder := 0, 0, 0
	spent = 0
	for i, r := range w.recs {
		if w.class[i] != clsTCPSeg {
			continue
		}
		iph, ipPayload, _ := decodeFrame(r.Frame)
		th, payload, err := packet.PeekTCP(iph.Src, iph.Dst, ipPayload)
		if err != nil {
			continue
		}
		id := packet.StreamID{Src: netip.AddrPortFrom(iph.Src, th.SrcPort), Dst: netip.AddrPortFrom(iph.Dst, th.DstPort)}
		if len(payload) > 0 {
			dataSegs++
			if want, known := next[id]; known && th.Seq != want {
				outOfOrder++
			}
			if end := th.Seq + uint32(len(payload)); int32(end-next[id]) > 0 || next[id] == 0 {
				next[id] = end
			}
		}
		start = time.Now()
		streams.Push(id, th, payload, r.Time, func(b []byte) {
			chunks = append(chunks, chunk{id, append([]byte(nil), b...)})
		})
		spent += time.Since(start)
		segs++
	}
	m["packet.stream_ns_per_seg"] = per(spent, segs)
	m["packet.stream_ooo_share"] = ratio(outOfOrder, dataSegs)

	framers := map[packet.StreamID]*sip.StreamFramer{}
	framed := 0
	spent = 0
	for _, c := range chunks {
		fr := framers[c.id]
		if fr == nil {
			fr = new(sip.StreamFramer)
			framers[c.id] = fr
		}
		start = time.Now()
		fr.Push(c.data, func(msg []byte) {
			framed++
			sips = append(sips, append([]byte(nil), msg...))
		})
		spent += time.Since(start)
	}
	m["sip.framer_ns_per_msg"] = per(spent, framed)

	var hv rtp.HeaderView
	start = time.Now()
	for _, p := range rtps {
		if rtp.PeekHeader(p, &hv) == nil {
			sink += hv.PayloadLen
		}
	}
	m["rtp.peek_ns_per_pkt"] = per(time.Since(start), len(rtps))
	var cv rtp.CompoundView
	start = time.Now()
	for _, p := range rtcps {
		if rtp.PeekCompound(p, &cv) == nil {
			sink += cv.Packets
		}
	}
	m["rtcp.peek_ns_per_pkt"] = per(time.Since(start), len(rtcps))

	// SIP parse: datagrams, reassembled datagrams and framed stream
	// messages through one parser, as one pipeline's distiller sees them.
	// Torture entries are in here; a parse error is a result, not a fault.
	parser := sip.NewParser()
	before := mallocs()
	start = time.Now()
	for _, raw := range sips {
		if msg, err := parser.Parse(raw); err == nil {
			sink += len(msg.Body)
		}
	}
	m["sip.parse_ns_per_msg"] = per(time.Since(start), len(sips))
	m["sip.parse_allocs_per_msg"] = ratio(int(mallocs()-before), len(sips))
	var bodies [][]byte
	for _, raw := range sips {
		if msg, err := parser.Parse(raw); err == nil && msg.Headers.Get(sip.HdrContentType) == "application/sdp" {
			bodies = append(bodies, msg.Body)
		}
	}
	start = time.Now()
	for _, b := range bodies {
		if s, err := sdp.Parse(b); err == nil {
			sink += len(s.Media)
		}
	}
	m["sdp.parse_ns_per_body"] = per(time.Since(start), len(bodies))
	runtime.KeepAlive(sink)

	return m["packet.decode_ns_per_frame"]*float64(len(w.recs)) +
		m["rtp.peek_ns_per_pkt"]*float64(len(rtps)) + m["rtcp.peek_ns_per_pkt"]*float64(len(rtcps)) +
		m["sip.parse_ns_per_msg"]*float64(len(sips))
}

// tracedPasses runs the serial engine untraced and traced, then the
// hand-composed distill -> generate -> rules pipeline on workloads it can
// serve, and replays the recorded event stream through the rule engine
// and the cooperative layer.
func tracedPasses(w *workload, m map[string]float64, decodeAndParseNS float64, v *verdict) *tracer {
	n := len(w.recs)
	tr := newTracer(6*n + 16)

	// Untraced reference: wall time, allocation and GC cost per frame.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plain := newSerial()
	start := time.Now()
	for _, r := range w.recs {
		plain.HandleFrame(r.Time, r.Frame)
	}
	plainWall := time.Since(start)
	runtime.ReadMemStats(&after)
	engineAlerts := v.check(w, plain)
	m["engine.allocs_per_frame"] = ratio(int(after.Mallocs-before.Mallocs), n)
	m["engine.alloc_bytes_per_frame"] = ratio(int(after.TotalAlloc-before.TotalAlloc), n)
	m["engine.gc_count"] = float64(after.NumGC - before.NumGC)
	m["engine.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	counts := plain.counts()
	m["distill.footprint_share"] = ratio(counts.footprints, n)
	m["distill.slowpath_share"] = ratio(counts.slowPath, n)
	m["distill.mismatch_share"] = ratio(counts.mismatched, n)

	// Traced: one span per frame, tagged with the frame's class. The
	// snapshot taken at the peak-live frame is kept out of the spans.
	runtime.GC()
	replayID := tr.layer("replay", -1)
	handleID := tr.layer("engine.handle", replayID)
	traced := newSerial()
	log := traced.recordEvents(n)
	var paused int64
	begin := nanos()
	for i, r := range w.recs {
		if i == w.peakIndex {
			pause := nanos()
			snapshotCosts(w, traced, m, v)
			paused += nanos() - pause
		}
		t0 := nanos()
		traced.HandleFrame(r.Time, r.Frame)
		tr.add(handleID, i, w.class[i], t0, nanos())
	}
	end := nanos()
	tr.add(replayID, 0, 0, begin, end-paused)
	v.check(w, traced)
	m["engine.trace_overhead_pct"] = 100 * (float64(end-begin-paused) - float64(plainWall)) / float64(plainWall)
	var classNS [numClasses]int64
	var classN [numClasses]int
	for _, s := range tr.spans {
		if int(s.name) == handleID {
			classNS[s.class] += s.end - s.start
			classN[s.class]++
		}
	}
	for c := frameClass(0); c < numClasses; c++ {
		m["engine.ns_per_frame."+classNames[c]] = per(time.Duration(classNS[c]), classN[c])
	}

	if w.udpOnly {
		composedPipeline(w, m, tr, engineAlerts, decodeAndParseNS, v)
	}

	// The recorded event stream through a fresh rule engine, alone and
	// with a thousand more rules to consult.
	events := *log
	feed, alerts, err := events.replayRules(0)
	v.attempted++
	if err != nil || alerts != len(w.expected) {
		v.fail(1, "%s: replaying %d recorded events raised %d alerts, want %d (%v)", w.name, len(events), alerts, len(w.expected), err)
	}
	m["rules.feed_ns_per_event"] = per(feed, len(events))
	m["rules.events"] = float64(len(events))
	m["rules.alerts"] = float64(alerts)
	// With a thousand more rules an event costs tens to hundreds of
	// microseconds; the head of the stream is enough to price one.
	head := events
	if len(head) > 4000 {
		head = head[:4000]
	}
	if feed, _, err = head.replayRules(1000); err != nil {
		v.fail(1, "%s: %v", w.name, err)
	}
	m["rules.feed_ns_per_event_x1k"] = per(feed, len(head))

	v.attempted++
	cc, err := events.replayCoop(64)
	if err != nil {
		v.fail(1, "%s: %v", w.name, err)
	}
	m["digest.encode_ns_per_event"] = per(cc.encode, cc.events)
	m["digest.decode_ns_per_event"] = per(cc.decode, cc.events)
	m["digest.bytes_per_event"] = ratio(cc.bytes, cc.events)
	m["coop.merge_ns_per_event"] = per(cc.merge, cc.events)

	// Trail append on its own: one distilled media view into a ring that
	// is already at its cap.
	for i, r := range w.recs {
		if w.class[i] == clsRTP {
			m["trail.append_ns"] = trailAppendNS(r.Time, r.Frame, 200000)
			break
		}
	}
	return tr
}

// snapshotCosts checkpoints the engine where most sessions are live and
// restores the checkpoint into a fresh engine.
func snapshotCosts(w *workload, e *ids, m map[string]float64, v *verdict) {
	v.attempted++
	start := time.Now()
	snap, err := e.Snapshot()
	m["snapshot.encode_ms"] = float64(time.Since(start)) / 1e6
	if err != nil {
		v.fail(1, "%s: snapshot: %v", w.name, err)
		return
	}
	start = time.Now()
	_, err = restoredSerial(snap)
	m["snapshot.restore_ms"] = float64(time.Since(start)) / 1e6
	if err != nil {
		v.fail(1, "%s: restore: %v", w.name, err)
	}
	m["snapshot.bytes"] = float64(len(snap))
	m["snapshot.bytes_per_session"] = ratio(len(snap), w.peakLive)
}

// composedPipeline times the stage boundaries inside the serial engine by
// running the same stages composed from their public constructors:
// pipeline.frame > distill, generate, rules.feed. The split only counts
// if the composition raises exactly the engine's alerts.
func composedPipeline(w *workload, m map[string]float64, tr *tracer, engineAlerts []alertKey, decodeAndParseNS float64, v *verdict) {
	n := len(w.recs)

	// The distiller alone, for its allocations (its state does not depend
	// on the generator's).
	alone := newPipeline()
	before := mallocs()
	for _, r := range w.recs {
		alone.distill(r.Time, r.Frame)
	}
	distillAllocs := mallocs() - before

	frameID := tr.layer("pipeline.frame", -1)
	distillID := tr.layer("distill", frameID)
	generateID := tr.layer("generate", frameID)
	feedID := tr.layer("rules.feed", frameID)
	p := newPipeline()
	views, events := 0, 0
	runtime.GC()
	before = mallocs()
	for i, r := range w.recs {
		f0 := nanos()
		p.sweep(r.Time)
		d0 := nanos()
		ok := p.distill(r.Time, r.Frame)
		d1 := nanos()
		tr.add(distillID, i, w.class[i], d0, d1)
		if ok {
			views++
			fired := p.generate()
			g1 := nanos()
			tr.add(generateID, i, p.viewClass(), d1, g1)
			if fired > 0 {
				for k := 0; k < fired; k++ {
					p.feed(k)
				}
				events += fired
				tr.add(feedID, i, w.class[i], g1, nanos())
			}
		}
		tr.add(frameID, i, w.class[i], f0, nanos())
	}
	totalAllocs := mallocs() - before

	v.attempted++
	got := p.alerts()
	if len(got) != len(engineAlerts) {
		v.fail(1, "%s: composed pipeline raised %d alerts, engine %d: stage split invalid", w.name, len(got), len(engineAlerts))
		return
	}
	for i := range got {
		if got[i] != engineAlerts[i] {
			v.fail(1, "%s: composed pipeline alert %d is %v, engine %v: stage split invalid", w.name, i, got[i], engineAlerts[i])
			return
		}
	}

	var distillNS int64
	var genNS [numClasses]int64
	var genN [numClasses]int
	for _, s := range tr.spans {
		switch int(s.name) {
		case distillID:
			distillNS += s.end - s.start
		case generateID:
			genNS[s.class] += s.end - s.start
			genN[s.class]++
		}
	}
	m["distill.ns_per_frame"] = per(time.Duration(distillNS), n)
	m["distill.self_ns_per_frame"] = (float64(distillNS) - decodeAndParseNS) / float64(n)
	m["distill.allocs_per_frame"] = ratio(int(distillAllocs), n)
	m["generator.ns_per_view"] = per(time.Duration(genNS[clsRTP]+genNS[clsRTCP]+genNS[clsSIP]), views)
	m["generator.ns_per_view.rtp"] = per(time.Duration(genNS[clsRTP]), genN[clsRTP])
	m["generator.ns_per_view.rtcp"] = per(time.Duration(genNS[clsRTCP]), genN[clsRTCP])
	m["generator.ns_per_view.sip"] = per(time.Duration(genNS[clsSIP]), genN[clsSIP])
	m["generator.events_per_view"] = ratio(events, views)
	// What is left of the composition's allocations once the distiller's
	// are taken out; the rule engine's share rides along (it allocates
	// only per event).
	m["generator.allocs_per_view"] = ratio(int(totalAllocs-distillAllocs), views)
}

// shardedPasses measures the sharded engine's own machinery: what the
// router costs the feeding thread, how long the shards take to drain and
// the alert merge takes, how evenly the shards were loaded, and the
// throughput of the neighbouring geometries.
func shardedPasses(w *workload, m map[string]float64, tr *tracer, v *verdict) {
	rootID := tr.layer("sharded.replay", -1)
	routeID := tr.layer("sharded.route", rootID)
	runtime.GC()
	e := newSharded(1, shardedShards)
	var busy int64
	begin := nanos()
	for i, r := range w.recs {
		t0 := nanos()
		e.HandleFrame(r.Time, r.Frame)
		t1 := nanos()
		busy += t1 - t0
		tr.add(routeID, i, w.class[i], t0, t1)
	}
	fed := nanos()
	e.close()
	drained := nanos()
	e.Alerts()
	merged := nanos()
	tr.add(rootID, 0, 0, begin, merged)
	v.check(w, e)
	m["sharded.router_ns_per_frame"] = ratio(int(busy), len(w.recs))
	m["sharded.router_busy_share"] = float64(busy) / float64(fed-begin)
	m["sharded.drain_ms"] = float64(drained-fed) / 1e6
	m["sharded.merge_ms"] = float64(merged-drained) / 1e6
	counts := e.counts()
	var most, sum uint64
	for _, p := range counts.shardProcessed {
		sum += p
		if p > most {
			most = p
		}
	}
	if sum > 0 {
		m["sharded.shard_skew"] = float64(most) * float64(len(counts.shardProcessed)) / float64(sum)
	}
	m["sharded.frames_shed"] = float64(counts.framesShed)

	cell := func(mk func() *ids) float64 {
		var fps [3]float64
		for i := range fps {
			fps[i], _ = replayFPS(w, mk(), v)
		}
		return median(fps[:])
	}
	serial, _ := replayFPS(w, newSerial(), v)
	m["sharded.speedup_vs_serial"] = cell(func() *ids { return newSharded(1, shardedShards) }) / serial
	m["sharded.fps.i1s1"] = cell(func() *ids { return newSharded(1, 1) })
	m["sharded.fps.i2s2"] = cell(func() *ids { return newSharded(2, 2) })
}

// pacedTails runs the open-loop shape once per engine for the numbers a
// shared host cannot bound: the lag tail and how late the pacer ran.
func pacedTails(w *workload, m map[string]float64, v *verdict) {
	serial := pacedRun(w, newSerial(), v)
	sharded := pacedRun(w, newSharded(1, shardedShards), v)
	m["alerts.lag_p99_us.serial"] = percentile(serial.lagsUS, 99)
	m["alerts.lag_p99_us.sharded"] = percentile(sharded.lagsUS, 99)
	m["alerts.lag_max_us.sharded"] = percentile(sharded.lagsUS, 100)
	m["alerts.samples"] = float64(len(sharded.lagsUS))
	late := append(serial.lateUS, sharded.lateUS...)
	sort.Float64s(late)
	m["pacer.late_p99_us"] = percentile(late, 99)
	m["pacer.late_max_us"] = percentile(late, 100)
}
