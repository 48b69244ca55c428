package core

import "scidive/internal/rtp"

// Boxed-footprint conveniences for tests that build Footprint values by
// hand. Production code moves FrameViews only (AppendView, ProcessView);
// these are thin adapters over exactly those entry points.

// viewOf projects a boxed footprint into v. It reports false for
// footprint types the view union does not model.
func viewOf(f Footprint, v *FrameView) bool {
	v.reset()
	switch fp := f.(type) {
	case *SIPFootprint:
		v.Proto, v.At, v.Src, v.Dst = ProtoSIP, fp.At, fp.Src, fp.Dst
		v.PortProto = fp.PortProto
		v.Msg, v.Malformed = fp.Msg, fp.Malformed
	case *RTPFootprint:
		v.Proto, v.At, v.Src, v.Dst = ProtoRTP, fp.At, fp.Src, fp.Dst
		v.PortProto, v.EmbeddedSIP = fp.PortProto, fp.EmbeddedSIP
		v.RTP = rtp.HeaderView{
			Padding:     fp.Header.Padding,
			Extension:   fp.Header.Extension,
			Marker:      fp.Header.Marker,
			PayloadType: fp.Header.PayloadType,
			Seq:         fp.Header.Seq,
			Timestamp:   fp.Header.Timestamp,
			SSRC:        fp.Header.SSRC,
			CSRCCount:   len(fp.Header.CSRC),
			PayloadLen:  fp.PayloadLen,
		}
	case *RTCPFootprint:
		v.Proto, v.At, v.Src, v.Dst = ProtoRTCP, fp.At, fp.Src, fp.Dst
		v.PortProto = fp.PortProto
		v.RTCP.Packets = len(fp.Packets)
		for _, pkt := range fp.Packets {
			if _, ok := pkt.(*rtp.Bye); ok {
				v.RTCP.HasBye = true
				break
			}
		}
	case *AcctFootprint:
		v.Proto, v.At, v.Src, v.Dst = ProtoAccounting, fp.At, fp.Src, fp.Dst
		v.Txn = fp.Txn
	case *RawFootprint:
		v.Proto, v.At, v.Src, v.Dst = ProtoOther, fp.At, fp.Src, fp.Dst
		v.OnPort, v.Reason, v.RawLen = fp.OnPort, fp.Reason, fp.Len
	default:
		return false
	}
	return true
}

// Append files a boxed footprint into the trail.
func (t *Trail) Append(f Footprint) {
	var v FrameView
	if viewOf(f, &v) {
		t.AppendView(&v)
	}
}

// Process folds one boxed footprint into the generator, returning the
// events it completes.
func (g *EventGenerator) Process(f Footprint) []Event {
	var v FrameView
	if !viewOf(f, &v) {
		return nil
	}
	var events []Event
	g.ProcessView(&v, RouteHints{}, &events)
	return events
}
