package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"traj2hash/internal/geo"
)

// CSV trajectory format: one point per row,
//
//	traj_id,x,y
//
// with an optional header row (detected automatically). Rows of the same
// trajectory must be contiguous and in order; trajectory ids are opaque
// strings. Coordinates are planar; raw longitude/latitude should be
// projected first (geo.ProjectEquirectangular) or imported via ReadCSVLonLat.

// ReadCSV reads trajectories in the format above. Trajectories appear in
// first-seen id order.
func ReadCSV(r io.Reader) ([]geo.Trajectory, error) {
	return readCSV(r, func(a, b float64) geo.Point { return geo.Point{X: a, Y: b} })
}

// ReadCSVLonLat reads rows of the form traj_id,lon,lat (degrees) and
// projects them into planar meters around refLat.
func ReadCSVLonLat(r io.Reader, refLat float64) ([]geo.Trajectory, error) {
	return readCSV(r, func(lon, lat float64) geo.Point {
		return geo.ProjectEquirectangular(lon, lat, refLat)
	})
}

func readCSV(r io.Reader, mk func(a, b float64) geo.Point) ([]geo.Trajectory, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	var out []geo.Trajectory
	index := map[string]int{}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: csv read: %w", err)
		}
		line++
		if line == 1 && looksLikeHeader(rec) {
			continue
		}
		a, err1 := strconv.ParseFloat(rec[1], 64)
		b, err2 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("data: csv line %d: bad coordinates %q,%q", line, rec[1], rec[2])
		}
		p := mk(a, b)
		if !p.IsFinite() {
			return nil, fmt.Errorf("data: csv line %d: non-finite point", line)
		}
		i, ok := index[rec[0]]
		if !ok {
			i = len(out)
			index[rec[0]] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], p)
	}
	return out, nil
}

func looksLikeHeader(rec []string) bool {
	_, err1 := strconv.ParseFloat(rec[1], 64)
	_, err2 := strconv.ParseFloat(rec[2], 64)
	return err1 != nil || err2 != nil
}
