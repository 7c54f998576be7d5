// Package testmaps provides small hand-built warehouses and traffic systems
// shared by tests across the repository.
package testmaps

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// Ring builds a 10x6 warehouse whose passable cells form a one-way ring
// around an interior block: a shelving row on the north edge stocking
// products 0 and 1 (300 units each), a station queue on the south edge, and
// two transport components on the sides.
//
// Component IDs: 0 = south queue (10 cells), 1 = east transport (5 cells),
// 2 = north shelving row (9 cells), 3 = west transport (4 cells).
func Ring() (*warehouse.Warehouse, *traffic.System, error) {
	g, _, stations, err := grid.Parse(
		"..........\n" +
			".@@######.\n" +
			".########.\n" +
			".########.\n" +
			".########.\n" +
			"....T.....")
	if err != nil {
		return nil, nil, err
	}
	shelfAccess := []grid.VertexID{
		g.At(grid.Coord{X: 1, Y: 5}),
		g.At(grid.Coord{X: 2, Y: 5}),
	}
	var stationVs []grid.VertexID
	for _, c := range stations {
		stationVs = append(stationVs, g.At(c))
	}
	w, err := warehouse.New(g, shelfAccess, stationVs, 2, [][]int{{300, 0}, {0, 300}})
	if err != nil {
		return nil, nil, err
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	var bottom, east, top, west []grid.VertexID
	for x := 0; x <= 9; x++ {
		bottom = append(bottom, at(x, 0))
	}
	for y := 1; y <= 5; y++ {
		east = append(east, at(9, y))
	}
	for x := 8; x >= 0; x-- {
		top = append(top, at(x, 5))
	}
	for y := 4; y >= 1; y-- {
		west = append(west, at(0, y))
	}
	s, err := traffic.Build(w, [][]grid.VertexID{bottom, east, top, west})
	if err != nil {
		return nil, nil, err
	}
	return w, s, nil
}

// MustRing is Ring for tests that prefer panicking helpers.
func MustRing() (*warehouse.Warehouse, *traffic.System) {
	w, s, err := Ring()
	if err != nil {
		panic(fmt.Sprintf("testmaps: %v", err))
	}
	return w, s
}

// TableIInstance is one of the nine WSP instances of the paper's Table I.
type TableIInstance struct {
	Name string // "<map>-<units>", e.g. "Fulfillment2-1440"
	Map  *maps.Map
	WL   warehouse.Workload
}

// TableI builds the nine Table I instances: Sorting Center with 160, 320
// and 480 units, Fulfillment1 with 550, 825 and 1100, and Fulfillment2
// with 1200, 1320 and 1440, each a uniform workload.
func TableI() ([]TableIInstance, error) {
	rows := []struct {
		name  string
		build func() (*maps.Map, error)
		units []int
	}{
		{"SortingCenter", maps.SortingCenter, []int{160, 320, 480}},
		{"Fulfillment1", maps.Fulfillment1, []int{550, 825, 1100}},
		{"Fulfillment2", maps.Fulfillment2, []int{1200, 1320, 1440}},
	}
	var out []TableIInstance
	for _, row := range rows {
		m, err := row.build()
		if err != nil {
			return nil, err
		}
		for _, units := range row.units {
			wl, err := workload.Uniform(m.W, units)
			if err != nil {
				return nil, err
			}
			out = append(out, TableIInstance{fmt.Sprintf("%s-%d", row.name, units), m, wl})
		}
	}
	return out, nil
}
