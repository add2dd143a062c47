package frame

import (
	"bytes"
	"testing"
)

// TestVersionRejects: the footer and the sticky writer error are covered
// through their callers (core's byte-flip, truncation and flaky-writer
// tests); this pins the magic check, including versions newer than the
// reader knows.
func TestVersionRejects(t *testing.T) {
	for _, magic := range []string{"BEARXY00", "BEARXY03", "BEARXY1A", "BEARZZ01", "NOTBEAR1", "BEAR"} {
		if _, err := NewReader(bytes.NewReader([]byte(magic))).Version("XY", 2); err == nil {
			t.Fatalf("Version accepted %q", magic)
		}
	}
	if v, err := NewReader(bytes.NewReader([]byte("BEARXY01"))).Version("XY", 2); err != nil || v != 1 {
		t.Fatalf("Version(BEARXY01) = %d, %v", v, err)
	}
}
