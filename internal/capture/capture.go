// Package capture implements SCAP, a minimal self-describing capture file
// format for simulated Ethernet frames, and reads standard pcap/pcapng
// captures alongside it (see pcap.go; the container is auto-detected by
// magic number). It plays the role tcpdump played in the SCIDIVE
// testbed: scenarios record hub traffic to a file and the IDS analyzes
// it offline — and a real tcpdump capture of Ethernet traffic feeds the
// same replay paths.
//
// Format (all integers big-endian):
//
//	magic   [4]byte  "SCAP"
//	version uint16   currently 1
//	records: { ts uint64 (virtual nanoseconds) | len uint32 | frame [len]byte }*
package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

var magic = [4]byte{'S', 'C', 'A', 'P'}

// Version is the current SCAP file version.
const Version = 1

// MaxFrameLen bounds a single record to guard against corrupt files.
const MaxFrameLen = 1 << 16

// Record is one captured frame with its virtual capture timestamp.
type Record struct {
	Time  time.Duration
	Frame []byte
}

// Writer writes SCAP files. Close flushes buffered data; it does not
// close the underlying writer.
type Writer struct {
	bw      *bufio.Writer
	started bool
	count   int
}

// NewWriter returns a Writer emitting to w. The header is written lazily
// on the first WriteFrame (or by Close for an empty capture).
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if w.started {
		return nil
	}
	w.started = true
	if _, err := w.bw.Write(magic[:]); err != nil {
		return err
	}
	var v [2]byte
	binary.BigEndian.PutUint16(v[:], Version)
	_, err := w.bw.Write(v[:])
	return err
}

// WriteFrame appends one frame observed at virtual time ts.
func (w *Writer) WriteFrame(ts time.Duration, frame []byte) error {
	if len(frame) > MaxFrameLen {
		return fmt.Errorf("capture: frame of %d bytes exceeds maximum %d", len(frame), MaxFrameLen)
	}
	if err := w.writeHeader(); err != nil {
		return fmt.Errorf("capture: write header: %w", err)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(ts))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(frame)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("capture: write record header: %w", err)
	}
	if _, err := w.bw.Write(frame); err != nil {
		return fmt.Errorf("capture: write frame: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of frames written so far.
func (w *Writer) Count() int { return w.count }

// Close flushes the writer, emitting the header even for empty captures.
func (w *Writer) Close() error {
	if err := w.writeHeader(); err != nil {
		return fmt.Errorf("capture: write header: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("capture: flush: %w", err)
	}
	return nil
}

// fileFormat identifies which capture container a Reader is decoding.
type fileFormat uint8

const (
	fmtSCAP fileFormat = iota
	fmtPcap
	fmtPcapNG
)

// Reader reads capture files: the native SCAP format, classic pcap, and
// pcapng. The format is auto-detected from the file's magic number on
// the first read; every consumer (Next, ReadAll, Replay,
// ReplayPartitioned) sees the same Record stream regardless of
// container. Only Ethernet link-layer captures are accepted — the
// decode pipeline starts at the Ethernet header.
type Reader struct {
	br      *bufio.Reader
	started bool
	format  fileFormat
	off     int64 // bytes consumed from the underlying stream
	rec     int   // records returned so far
	pcap    pcapState
	ng      pcapngState
	// hdr is nextSCAP's record-header scratch: a local would escape
	// through io.ReadFull and cost one allocation per record.
	hdr [12]byte
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// readFull fills p from the stream, advancing the reader's byte offset
// by however much was actually read.
func (r *Reader) readFull(p []byte) error {
	n, err := io.ReadFull(r.br, p)
	r.off += int64(n)
	return err
}

// discard skips n bytes, advancing the byte offset.
func (r *Reader) discard(n int) error {
	m, err := r.br.Discard(n)
	r.off += int64(m)
	return err
}

// corruptf reports a malformed record with enough context to find it in
// the file: the record's index and the byte offset its framing starts at.
func (r *Reader) corruptf(start int64, format string, args ...any) error {
	return fmt.Errorf("capture: record %d at offset %d: %s", r.rec, start, fmt.Sprintf(format, args...))
}

func (r *Reader) readHeader() error {
	if r.started {
		return nil
	}
	r.started = true
	head, err := r.br.Peek(4)
	if err != nil {
		return fmt.Errorf("capture: read header: %w", err)
	}
	switch {
	case [4]byte(head) == magic:
		var hdr [6]byte
		if err := r.readFull(hdr[:]); err != nil {
			return fmt.Errorf("capture: read header: %w", err)
		}
		if v := binary.BigEndian.Uint16(hdr[4:6]); v != Version {
			return fmt.Errorf("capture: unsupported version %d", v)
		}
		r.format = fmtSCAP
		return nil
	case isPcapMagic(head):
		r.format = fmtPcap
		return r.readPcapHeader()
	case binary.BigEndian.Uint32(head) == pcapngBlockSHB:
		// pcapng opens with a Section Header Block; the block loop in
		// nextPcapNG parses it (and any later section boundaries).
		r.format = fmtPcapNG
		return nil
	default:
		return errors.New("capture: bad magic: not an SCAP, pcap or pcapng file")
	}
}

// Next returns the next record, or io.EOF at end of file. The returned
// frame is freshly allocated and owned by the caller.
func (r *Reader) Next() (Record, error) {
	return r.nextInto(nil)
}

// nextInto reads the next record into buf when its capacity suffices,
// allocating only when the frame outgrows it. The returned Record's
// Frame aliases buf on reuse.
func (r *Reader) nextInto(buf []byte) (Record, error) {
	if err := r.readHeader(); err != nil {
		return Record{}, err
	}
	var rec Record
	var err error
	switch r.format {
	case fmtPcap:
		rec, err = r.nextPcap(buf)
	case fmtPcapNG:
		rec, err = r.nextPcapNG(buf)
	default:
		rec, err = r.nextSCAP(buf)
	}
	if err == nil {
		r.rec++
	}
	return rec, err
}

// nextSCAP decodes one native SCAP record.
func (r *Reader) nextSCAP(buf []byte) (Record, error) {
	start := r.off
	hdr := r.hdr[:]
	if err := r.readFull(hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("capture: read record header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > MaxFrameLen {
		return Record{}, r.corruptf(start, "corrupt record length %d exceeds maximum %d", n, MaxFrameLen)
	}
	frame := frameInto(buf, n)
	if err := r.readFull(frame); err != nil {
		return Record{}, fmt.Errorf("capture: read frame body: %w", err)
	}
	return Record{Time: time.Duration(binary.BigEndian.Uint64(hdr[0:8])), Frame: frame}, nil
}

// frameInto returns an n-byte frame slice, reusing buf's storage when it
// is large enough.
func frameInto(buf []byte, n uint32) []byte {
	if uint32(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// FrameFunc consumes one captured frame. It is the feed signature shared
// by netsim taps and both IDS engines (Engine.HandleFrame and
// ShardedEngine.HandleFrame satisfy it).
//
// Aliasing contract: the frame slice is only valid for the duration of
// the call — feeders (Replay in particular) reuse one buffer across
// frames, so an implementation that retains frame bytes past its return
// must copy them first. Both IDS engines' serial paths copy everything
// they keep (the SIP parser copies bodies, the reassembler copies
// fragment payloads), and so does the sharded engine's synchronous
// router, which decodes the frame before HandleFrame returns and ships
// its shards the decoded result, never the bytes. Only the sharded
// engine's ingest lanes decode later, on another goroutine; its
// ReplayCapture copies each frame on that path.
type FrameFunc func(at time.Duration, frame []byte)

// Replay streams every remaining record of r into fn in capture order,
// reusing a single frame buffer across records (see the FrameFunc
// aliasing contract). It returns nil at clean end-of-file.
func Replay(r *Reader, fn FrameFunc) error {
	var buf []byte
	for {
		rec, err := r.nextInto(buf)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(rec.Time, rec.Frame)
		buf = rec.Frame[:cap(rec.Frame)]
	}
}

// ReplayPartitioned deals the remaining records of r round-robin across
// the consumers: consumer i receives records i, i+N, i+2N, … of the
// capture, each on its own goroutine, in capture order within the lane.
// Cross-lane ordering is unspecified — a consumer that needs the global
// order must reconstruct it (the sharded engine's ingest tier does this
// by sequence-tagging at the deal). The FrameFunc aliasing contract
// holds per lane: each lane owns a small ring of buffers and a buffer is
// only reused after the consumer's call on it has returned.
//
// With a single consumer this is exactly Replay. It returns nil at clean
// end-of-file; a read error stops the deal, drains the lanes, and is
// returned.
func ReplayPartitioned(r *Reader, fns ...FrameFunc) error {
	if len(fns) == 0 {
		return errors.New("capture: ReplayPartitioned needs at least one consumer")
	}
	if len(fns) == 1 {
		return Replay(r, fns[0])
	}
	type deal struct {
		at    time.Duration
		frame []byte
	}
	const depth = 2 // per-lane double buffer: the reader fills one while the consumer holds the other
	ins := make([]chan deal, len(fns))
	free := make([]chan []byte, len(fns))
	var wg sync.WaitGroup
	for i := range fns {
		ins[i] = make(chan deal, depth)
		free[i] = make(chan []byte, depth)
		for j := 0; j < depth; j++ {
			free[i] <- nil // nextInto allocates on first use, then the buffer recycles
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for d := range ins[i] {
				fns[i](d.at, d.frame)
				free[i] <- d.frame[:cap(d.frame)] // the call returned: safe to reuse
			}
		}(i)
	}
	var err error
	for i := 0; ; i++ {
		lane := i % len(fns)
		var rec Record
		rec, err = r.nextInto(<-free[lane])
		if err != nil {
			break
		}
		ins[lane] <- deal{rec.Time, rec.Frame}
	}
	for _, in := range ins {
		close(in)
	}
	wg.Wait()
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// ReadAll consumes the remaining records.
func (r *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
