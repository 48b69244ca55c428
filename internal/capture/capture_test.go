package capture

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := [][]byte{[]byte("frame-one"), {}, bytes.Repeat([]byte{0xaa}, 1500)}
	for i, f := range frames {
		if err := w.WriteFrame(time.Duration(i)*time.Millisecond, f); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Count() != len(frames) {
		t.Errorf("Count() = %d, want %d", w.Count(), len(frames))
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != len(frames) {
		t.Fatalf("read %d records, want %d", len(recs), len(frames))
	}
	for i, rec := range recs {
		if rec.Time != time.Duration(i)*time.Millisecond {
			t.Errorf("record %d time = %v", i, rec.Time)
		}
		if !bytes.Equal(rec.Frame, frames[i]) {
			t.Errorf("record %d frame mismatch", i)
		}
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("got %d records from empty capture", len(recs))
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTSCAP---")))
	if _, err := r.Next(); err == nil {
		t.Error("want error for bad magic")
	}
}

func TestUnsupportedVersion(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{'S', 'C', 'A', 'P', 0x00, 0x63}))
	if _, err := r.Next(); err == nil {
		t.Error("want error for version 99")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(0, []byte("abcdef")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(cut))
	if _, err := r.Next(); err == nil {
		t.Error("want error for truncated body")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(0, make([]byte, MaxFrameLen+1)); err == nil {
		t.Error("want error for oversize frame")
	}
}

func TestEOFAfterLastRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteFrame(time.Second, []byte("x"))
	_ = w.Close()
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("second Next err = %v, want io.EOF", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ts uint32, frame []byte) bool {
		if len(frame) > MaxFrameLen {
			frame = frame[:MaxFrameLen]
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteFrame(time.Duration(ts), frame); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		rec, err := NewReader(&buf).Next()
		return err == nil && rec.Time == time.Duration(ts) && bytes.Equal(rec.Frame, frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
