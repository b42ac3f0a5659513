package world

import "repro/internal/geo"

// WallsCrossed and BlocksMotion are the whole-world map constraint as
// it stood before Constraint: every move tested against every region
// and every wall. They stay here, in test code only, as the reference
// the constraint oracle holds Constraint.Blocks to.

// WallsCrossed counts how many walls the straight segment a→b crosses.
func (w *World) WallsCrossed(a, b geo.Point) int {
	seg := geo.Seg(a, b)
	n := 0
	for _, wall := range w.Walls {
		if seg.Intersects(wall.Seg) {
			n++
		}
	}
	return n
}

// BlocksMotion reports whether moving from a to b crosses a wall or
// leaves the walkable area.
func (w *World) BlocksMotion(a, b geo.Point) bool {
	if !w.Walkable(b) {
		return true
	}
	return w.WallsCrossed(a, b) > 0
}
