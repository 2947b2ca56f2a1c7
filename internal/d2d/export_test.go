package d2d

import "github.com/indoorspatial/ifls/internal/indoor"

// PublishedTrees returns the source doors whose route trees g has
// published, in ascending order.
func PublishedTrees(g *Graph) []indoor.DoorID {
	var out []indoor.DoorID
	for i := range g.trees {
		if g.trees[i].Load() != nil {
			out = append(out, indoor.DoorID(i))
		}
	}
	return out
}
