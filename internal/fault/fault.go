// Package fault provides small fault-injection wrappers used by tests to
// exercise the robustness layer: readers that fail or truncate mid-stream,
// writers that flip bytes, and a deterministic way to corrupt serialized
// artifacts. Production code never imports this package; it lives outside
// testdata so that every package's tests can share one implementation.
package fault

import (
	"errors"
	"io"
)

// ErrInjected is the default error injected by FlakyReader and FlakyWriter.
var ErrInjected = errors.New("fault: injected I/O error")

// FlakyReader reads from R and fails with Err (default ErrInjected) after
// N bytes have been delivered, simulating a connection dropped mid-body.
type FlakyReader struct {
	R    io.Reader
	N    int64 // bytes delivered before the failure
	Err  error
	read int64
}

// Read implements io.Reader, delivering at most N bytes before failing.
func (f *FlakyReader) Read(p []byte) (int, error) {
	if f.read >= f.N {
		return 0, f.err()
	}
	if max := f.N - f.read; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := f.R.Read(p)
	f.read += int64(n)
	if err == io.EOF {
		// The underlying stream ended before the injection point; the
		// caller sees a clean EOF, which is the truncation scenario.
		return n, io.EOF
	}
	if err == nil && f.read >= f.N {
		err = f.err()
	}
	return n, err
}

func (f *FlakyReader) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// FlakyWriter writes to W and fails with Err (default ErrInjected) after N
// bytes, simulating a disk filling up or a peer closing the connection.
type FlakyWriter struct {
	W       io.Writer
	N       int64
	Err     error
	written int64
}

// Write implements io.Writer, accepting at most N bytes before failing.
func (f *FlakyWriter) Write(p []byte) (int, error) {
	if f.written >= f.N {
		return 0, f.err()
	}
	short := false
	if max := f.N - f.written; int64(len(p)) > max {
		p, short = p[:max], true
	}
	n, err := f.W.Write(p)
	f.written += int64(n)
	if err == nil && short {
		err = f.err()
	}
	return n, err
}

func (f *FlakyWriter) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// CorruptingWriter passes bytes through to W, XOR-ing the byte at stream
// offset Off with Mask (default 0xff), simulating a single bit-rot or
// torn-write corruption at a chosen location.
type CorruptingWriter struct {
	W    io.Writer
	Off  int64
	Mask byte
	pos  int64
}

// Write implements io.Writer, flipping the configured byte in passing.
func (c *CorruptingWriter) Write(p []byte) (int, error) {
	mask := c.Mask
	if mask == 0 {
		mask = 0xff
	}
	if c.Off >= c.pos && c.Off < c.pos+int64(len(p)) {
		q := make([]byte, len(p))
		copy(q, p)
		q[c.Off-c.pos] ^= mask
		p = q
	}
	n, err := c.W.Write(p)
	c.pos += int64(n)
	return n, err
}

// Flip returns a copy of b with the byte at offset off XOR-ed with mask
// (0 means 0xff), the in-memory counterpart of CorruptingWriter.
func Flip(b []byte, off int64, mask byte) []byte {
	if mask == 0 {
		mask = 0xff
	}
	c := append([]byte(nil), b...)
	c[off] ^= mask
	return c
}
