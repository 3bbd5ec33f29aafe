package data

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"traj2hash/internal/geo"
)

func TestCSVRoundTrip(t *testing.T) {
	ts := Porto().Generate(5, 30)
	var buf bytes.Buffer
	buf.WriteString("traj_id,x,y\n")
	for i, tr := range ts {
		for _, p := range tr {
			fmt.Fprintf(&buf, "%d,%s,%s\n", i,
				strconv.FormatFloat(p.X, 'f', -1, 64), strconv.FormatFloat(p.Y, 'f', -1, 64))
		}
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("got %d trajectories", len(got))
	}
	for i := range ts {
		if len(got[i]) != len(ts[i]) {
			t.Fatalf("trajectory %d length differs", i)
		}
		for j := range ts[i] {
			if got[i][j] != ts[i][j] {
				t.Fatalf("trajectory %d point %d differs", i, j)
			}
		}
	}
}

func TestCSVNoHeader(t *testing.T) {
	in := "a,1,2\na,3,4\nb,5,6\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 2 || got[1][0] != (geo.Point{X: 5, Y: 6}) {
		t.Fatalf("got %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id,x\n")); err == nil {
		t.Error("wrong column count accepted")
	}
	// A first row with unparsable coordinates is treated as a header.
	got, err := ReadCSV(strings.NewReader("a,notanumber,2\nb,1,2\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("header detection failed: %v %v", got, err)
	}
	if _, err := ReadCSV(strings.NewReader("traj_id,x,y\na,oops,2\n")); err == nil {
		t.Error("bad coordinate accepted")
	}
	if _, err := ReadCSV(strings.NewReader("traj_id,x,y\na,1,+Inf\n")); err == nil {
		t.Error("non-finite accepted")
	}
}

func TestCSVLonLat(t *testing.T) {
	in := "traj_id,lon,lat\nt1,-8.61,41.15\nt1,-8.60,41.15\n"
	got, err := ReadCSVLonLat(strings.NewReader(in), 41.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("got %v", got)
	}
	d := got[0][0].Dist(got[0][1])
	if d < 700 || d > 950 {
		t.Errorf("0.01 deg lon = %v m", d)
	}
}
