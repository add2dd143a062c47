// Package frame is the framing every persisted BEAR artifact shares: an
// 8-byte magic ("BEAR", a two-letter kind, a two-digit version), the
// payload, then a 12-byte integrity footer — the byte length of everything
// before the footer (8 bytes, little endian) and the IEEE CRC32 of those
// same bytes (4 bytes) — so a truncated or bit-flipped file is rejected
// loudly instead of decoding into silent garbage.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// FooterLen is the size of the integrity footer.
const FooterLen = 12

// Writer buffers, counts and checksums everything written through it. The
// first write error is sticky: later writes are dropped and Close returns
// it, so encoders need not check every field.
type Writer struct {
	bw  *bufio.Writer
	n   int64
	sum uint32
	err error
}

// NewWriter starts an artifact of the given kind and version on w by
// writing its magic.
func NewWriter(w io.Writer, kind string, version int) *Writer {
	fw := &Writer{bw: bufio.NewWriter(w)}
	fmt.Fprintf(fw, "BEAR%s%02d", kind, version)
	return fw
}

func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.bw.Write(p)
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p[:n])
	w.n += int64(n)
	w.err = err
	return n, err
}

// U64 writes v as 8 little-endian bytes.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// Close appends the footer and flushes. It does not close the underlying
// writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	var foot [FooterLen]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(w.n))
	binary.LittleEndian.PutUint32(foot[8:], w.sum)
	if _, err := w.bw.Write(foot[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Reader counts and checksums everything read through it.
type Reader struct {
	br  *bufio.Reader
	n   int64
	sum uint32
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.sum = crc32.Update(r.sum, crc32.IEEETable, p[:n])
	r.n += int64(n)
	return n, err
}

// Version reads the magic and returns its version, which must name the
// given kind and lie in [1, latest] (latest < 10).
func (r *Reader) Version(kind string, latest int) (int, error) {
	var got [8]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return 0, err
	}
	if string(got[:6]) != "BEAR"+kind || got[6] != '0' || got[7] < '1' || got[7] > byte('0'+latest) {
		return 0, fmt.Errorf("bad magic %q, want BEAR%s01..%02d", got[:], kind, latest)
	}
	return int(got[7] - '0'), nil
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// CheckFooter reads the footer from the underlying reader (not through the
// checksum) and verifies it against the bytes read so far.
func (r *Reader) CheckFooter() error {
	var foot [FooterLen]byte
	if _, err := io.ReadFull(r.br, foot[:]); err != nil {
		return fmt.Errorf("truncated file: missing integrity footer: %w", err)
	}
	if n := int64(binary.LittleEndian.Uint64(foot[:8])); n != r.n {
		return fmt.Errorf("corrupt file: footer records %d payload bytes, read %d", n, r.n)
	}
	if sum := binary.LittleEndian.Uint32(foot[8:]); sum != r.sum {
		return fmt.Errorf("corrupt file: CRC32 mismatch (stored %08x, computed %08x)", sum, r.sum)
	}
	return nil
}
