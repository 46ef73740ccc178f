package geom

import "math"

// Disk is a closed disk in the plane.
type Disk struct {
	Center Point
	R2     float64 // squared radius; negative means the empty disk
}

// EmptyDisk is the disk containing no points.
var EmptyDisk = Disk{R2: -1}

// Contains reports whether p lies in the closed disk, with a small relative
// tolerance to absorb floating-point construction error.
func (d Disk) Contains(p Point) bool {
	if d.R2 < 0 {
		return false
	}
	return Dist2(d.Center, p) <= d.R2*(1+1e-12)+1e-300
}

// Radius returns the radius of d (0 for the empty disk).
func (d Disk) Radius() float64 {
	if d.R2 < 0 {
		return 0
	}
	return math.Sqrt(d.R2)
}

// DiskFrom2 returns the smallest disk with p and q on its boundary
// (the disk with diameter pq).
func DiskFrom2(p, q Point) Disk {
	c := Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
	return Disk{Center: c, R2: Dist2(c, p)}
}

// DiskFrom3 returns the disk through the three points. If they are
// collinear it falls back to the smallest disk containing them.
func DiskFrom3(a, b, c Point) Disk {
	if Orient2D(a, b, c) == 0 {
		// Collinear: the farthest pair's diametral disk covers all three.
		d1, d2, d3 := DiskFrom2(a, b), DiskFrom2(a, c), DiskFrom2(b, c)
		best := d1
		if d2.R2 > best.R2 {
			best = d2
		}
		if d3.R2 > best.R2 {
			best = d3
		}
		return best
	}
	ctr := Circumcenter(a, b, c)
	return Disk{Center: ctr, R2: Dist2(ctr, a)}
}
