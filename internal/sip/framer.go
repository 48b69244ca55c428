package sip

import (
	"bytes"
	"strconv"
	"strings"
)

// Framer buffer bounds. A header block larger than framerMaxHeader with
// no separator, or a framed message larger than framerMaxMessage, marks
// the stream position unframeable: the buffered bytes are dropped and
// framing re-synchronizes on whatever follows.
const (
	framerMaxHeader  = 16 << 10
	framerMaxMessage = 256 << 10
)

// StreamFramer extracts complete SIP messages from a reassembled byte
// stream, as SIP over TCP requires (RFC 3261 §18.3: the message ends
// where Content-Length says it does). It is incremental: Push feeds it
// the next chunk of in-order stream bytes and emits zero or more complete
// messages, tolerating messages split across segments and several
// messages coalesced into one segment. CRLF keep-alives between messages
// are skipped.
//
// Framing never invents data: an emitted message is always a verbatim
// byte range of the stream, delimited by the header/body separator and
// the declared Content-Length (absent or unparsable Content-Length
// frames a zero-length body and leaves the dispute to the parser).
type StreamFramer struct {
	buf     []byte
	off     int // consumed prefix of buf, compacted on the next Push
	dropped int // unframeable stretches discarded (buffer overflows)
}

// PendingBytes reports how many buffered bytes await completion.
func (f *StreamFramer) PendingBytes() int { return len(f.buf) - f.off }

// Dropped reports how many unframeable buffer stretches were discarded.
func (f *StreamFramer) Dropped() int { return f.dropped }

// Push appends data to the framing buffer and emits every complete
// message now available, in stream order. Emitted slices alias the
// internal buffer and are only valid until the next Push; callers that
// retain bytes must copy.
func (f *StreamFramer) Push(data []byte, emit func(msg []byte)) {
	if f.off > 0 {
		// Compact the consumed prefix (invalidates previously emitted
		// slices, per the contract).
		n := copy(f.buf, f.buf[f.off:])
		f.buf = f.buf[:n]
		f.off = 0
	}
	f.buf = append(f.buf, data...)
	for {
		// Skip leading CRLF keep-alives.
		for f.off < len(f.buf) && (f.buf[f.off] == '\r' || f.buf[f.off] == '\n') {
			f.off++
		}
		rest := f.buf[f.off:]
		if len(rest) == 0 {
			return
		}
		headerEnd, sepLen, cl, ok := scanHead(rest)
		if headerEnd < 0 {
			if len(rest) > framerMaxHeader {
				f.dropped++
				f.off = len(f.buf)
			}
			return
		}
		if !ok || headerEnd+sepLen+cl > framerMaxMessage {
			// Unframeable at this position; drop through the separator
			// and re-synchronize.
			f.dropped++
			f.off += headerEnd + sepLen
			continue
		}
		total := headerEnd + sepLen + cl
		if len(rest) < total {
			return
		}
		f.off += total
		emit(rest[:total])
	}
}

// scanHead walks a buffered message's lines once, up to the earliest
// header/body separator ("\r\n\r\n" or "\n\n"), so a body is never
// scanned. It returns the separator's offset and length, or (-1, 0) while
// none has arrived, and the first Content-Length (canonical or compact
// "l") among the header lines: (0, true) when there is none — a
// zero-length body, matching the parser — and (0, false) when its value
// is unusable for framing (negative, non-numeric, or folded beyond
// recognition).
func scanHead(b []byte) (headerEnd, sepLen, cl int, ok bool) {
	cl, ok = 0, true
	found := false
	for start := 0; ; {
		i := bytes.IndexByte(b[start:], '\n')
		if i < 0 {
			return -1, 0, 0, false
		}
		i += start
		// A separator is found at its first LF: "\n\n" starts there,
		// "\r\n\r\n" one byte before, and the line ends where it starts.
		end := i
		switch {
		case i+1 < len(b) && b[i+1] == '\n':
			headerEnd, sepLen = i, 2
		case i > 0 && b[i-1] == '\r' && i+2 < len(b) && b[i+1] == '\r' && b[i+2] == '\n':
			headerEnd, sepLen, end = i-1, 4, i-1
		}
		if !found {
			cl, ok, found = contentLength(b[start:end])
		}
		if sepLen > 0 {
			return headerEnd, sepLen, cl, ok
		}
		start = i + 1
	}
}

// contentLength reads one header line: whether it is a Content-Length,
// and if so its value's framing verdict. Names resolve through the
// parser's header IDs; only a name of one of the two lengths is looked up.
func contentLength(line []byte) (cl int, ok, is bool) {
	line = bytes.TrimRight(line, "\r")
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return 0, true, false
	}
	name := bytes.TrimSpace(line[:colon])
	if (len(name) != 1 && len(name) != len(HdrContentLength)) || lookupHeader(string(name)) != hdrContentLength {
		return 0, true, false
	}
	cl, err := strconv.Atoi(strings.TrimSpace(string(line[colon+1:])))
	if err != nil || cl < 0 {
		return 0, false, true
	}
	return cl, true, true
}

// State returns the framer's buffered bytes (the incomplete message
// prefix) for checkpointing. The slice is a copy.
func (f *StreamFramer) State() []byte {
	return append([]byte(nil), f.buf[f.off:]...)
}

// SetState replaces the framer's buffered bytes from a checkpoint.
func (f *StreamFramer) SetState(b []byte) {
	f.buf = append(f.buf[:0], b...)
	f.off = 0
	f.dropped = 0
}
