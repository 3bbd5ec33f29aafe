package baselines

import (
	"traj2hash/internal/geo"
)

// QuadTree is a PR (point-region) quadtree over the study space, the
// spatial structure TrajGAT [24] uses to build its graph: leaves adapt to
// point density, and each leaf is identified by its root-to-leaf path.
type QuadTree struct {
	root     *quadNode
	maxDepth int
	capacity int
	numNodes int
}

type quadNode struct {
	minX, minY, maxX, maxY float64
	points                 []geo.Point
	children               [4]*quadNode // nil for leaves
	id                     int          // node id for embeddings
	depth                  int
}

// NewQuadTree builds a PR quadtree over the bounding box of ts, splitting
// nodes that exceed capacity points until maxDepth.
func NewQuadTree(ts []geo.Trajectory, capacity, maxDepth int) *QuadTree {
	minP := geo.Point{X: 1e18, Y: 1e18}
	maxP := geo.Point{X: -1e18, Y: -1e18}
	for _, t := range ts {
		for _, p := range t {
			if p.X < minP.X {
				minP.X = p.X
			}
			if p.Y < minP.Y {
				minP.Y = p.Y
			}
			if p.X > maxP.X {
				maxP.X = p.X
			}
			if p.Y > maxP.Y {
				maxP.Y = p.Y
			}
		}
	}
	qt := &QuadTree{
		root:     &quadNode{minX: minP.X, minY: minP.Y, maxX: maxP.X + 1e-9, maxY: maxP.Y + 1e-9},
		maxDepth: maxDepth,
		capacity: capacity,
	}
	qt.root.id = 0
	qt.numNodes = 1
	for _, t := range ts {
		for _, p := range t {
			qt.insert(qt.root, p)
		}
	}
	return qt
}

// NumNodes returns the number of tree nodes (for embedding tables).
func (q *QuadTree) NumNodes() int { return q.numNodes }

func (q *QuadTree) insert(n *quadNode, p geo.Point) {
	for {
		if n.children[0] == nil {
			n.points = append(n.points, p)
			if len(n.points) > q.capacity && n.depth < q.maxDepth {
				q.split(n)
				// Fall through: continue descending with p already placed.
				return
			}
			return
		}
		n = n.children[q.quadrant(n, p)]
	}
}

func (q *QuadTree) quadrant(n *quadNode, p geo.Point) int {
	mx := (n.minX + n.maxX) / 2
	my := (n.minY + n.maxY) / 2
	idx := 0
	if p.X >= mx {
		idx |= 1
	}
	if p.Y >= my {
		idx |= 2
	}
	return idx
}

func (q *QuadTree) split(n *quadNode) {
	mx := (n.minX + n.maxX) / 2
	my := (n.minY + n.maxY) / 2
	bounds := [4][4]float64{
		{n.minX, n.minY, mx, my},
		{mx, n.minY, n.maxX, my},
		{n.minX, my, mx, n.maxY},
		{mx, my, n.maxX, n.maxY},
	}
	for i := range n.children {
		n.children[i] = &quadNode{
			minX: bounds[i][0], minY: bounds[i][1],
			maxX: bounds[i][2], maxY: bounds[i][3],
			id:    q.numNodes,
			depth: n.depth + 1,
		}
		q.numNodes++
	}
	pts := n.points
	n.points = nil
	for _, p := range pts {
		q.insert(n.children[q.quadrant(n, p)], p)
	}
}

// Path returns the node ids on the root-to-leaf path of the leaf containing
// p — TrajGAT's structural encoding of a point.
func (q *QuadTree) Path(p geo.Point) []int {
	var path []int
	n := q.root
	for {
		path = append(path, n.id)
		if n.children[0] == nil {
			return path
		}
		n = n.children[q.quadrant(n, p)]
	}
}
