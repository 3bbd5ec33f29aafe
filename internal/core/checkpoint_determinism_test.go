package core

import (
	"bytes"
	"testing"
)

// TestCheckpointEncodeDeterministic pins the checkpoint path's
// byte-identity contract: two checkpoints produced by two independent
// training runs of the same seeded fixture must Save to
// identical bytes (deterministic training AND deterministic encoding),
// and a Load → Save round trip must reproduce them. Any map iteration,
// wall-clock read, or goroutine-completion-order merge leaking into the
// per-epoch body or the codec breaks this before it breaks resume.
func TestCheckpointEncodeDeterministic(t *testing.T) {
	saveBytes := func(c *Checkpoint) []byte {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := saveBytes(validCheckpoint(t))
	b := saveBytes(validCheckpoint(t))
	if !bytes.Equal(a, b) {
		t.Fatalf("two independently-trained checkpoints encoded to different bytes (%d vs %d)", len(a), len(b))
	}
	got, err := LoadCheckpoint(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if c := saveBytes(got); !bytes.Equal(a, c) {
		t.Fatal("Load → Save round trip changed the checkpoint bytes")
	}
}
