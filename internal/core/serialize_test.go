package core

import (
	"bytes"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ts := genTrajs(10, 20)
	m, err := New(tinyConfig(), ts)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Embed(ts[0])
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	have := got.Embed(ts[0])
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("embedding differs after round trip at %d: %v vs %v", i, want[i], have[i])
		}
	}
	// Codes equal too.
	if m.Code(ts[1]).Key() != got.Code(ts[1]).Key() {
		t.Error("codes differ after round trip")
	}
}

func TestModelSaveLoadNoGrids(t *testing.T) {
	ts := genTrajs(8, 21)
	cfg := tinyConfig()
	cfg.UseGrids = false
	m, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Embed(ts[0])
	b := got.Embed(ts[0])
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("no-grid model differs after round trip")
		}
	}
}

func TestModelSaveLoadNode2Vec(t *testing.T) {
	ts := genTrajs(8, 22)
	cfg := tinyConfig()
	cfg.GridRep = Node2VecRep
	m, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Embed(ts[2])
	b := got.Embed(ts[2])
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("node2vec model differs after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
}
