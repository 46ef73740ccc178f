package geom

import "math"

// Error-bound coefficients of the adaptive stages (Shewchuk 1997, Section
// 6): stage B certifies the float sum of the head-only expansion, stage C
// the first-order tail correction.
const (
	resultErrBound = (3 + 8*epsilon) * epsilon
	ccwErrBoundB   = (2 + 12*epsilon) * epsilon
	ccwErrBoundC   = (9 + 64*epsilon) * epsilon * epsilon
	inCircleBoundB = (4 + 48*epsilon) * epsilon
	inCircleBoundC = (44 + 576*epsilon) * epsilon * epsilon
)

// orient2DAdapt runs stages B–D of Orient2D (Shewchuk's orient2dadapt)
// for a triple the stage-A filter could not certify; detSum is stage A's
// |detL| + |detR|. It returns the exact sign and true, or false when an
// atom lies outside the exponent window and only big.Rat is exact.
//
//ridt:noalloc
func orient2DAdapt(a, b, c Point, detSum float64) (int, bool) {
	acx, bcx := a.X-c.X, b.X-c.X
	acy, bcy := a.Y-c.Y, b.Y-c.Y
	if !(inWindow(acx) && inWindow(bcx) && inWindow(acy) && inWindow(bcy)) {
		return 0, false
	}

	// Stage B: the exact determinant of the rounded differences.
	bb := productDiff(acx, bcy, acy, bcx)
	det := estimate(bb[:])
	if errBound := ccwErrBoundB * detSum; det >= errBound || -det >= errBound {
		return sign(det), true
	}
	acxt := twoDiffTail(a.X, c.X, acx)
	bcxt := twoDiffTail(b.X, c.X, bcx)
	acyt := twoDiffTail(a.Y, c.Y, acy)
	bcyt := twoDiffTail(b.Y, c.Y, bcy)
	if acxt == 0 && acyt == 0 && bcxt == 0 && bcyt == 0 {
		// Exact differences: bb is the determinant itself.
		return expansionSign(bb[:]), true
	}
	if !(inWindow(acxt) && inWindow(bcxt) && inWindow(acyt) && inWindow(bcyt)) {
		return 0, false
	}

	// Stage C: add the first-order tail terms in floating point.
	errBound := ccwErrBoundC*detSum + resultErrBound*math.Abs(det)
	det += (acx*bcyt + bcy*acxt) - (acy*bcxt + bcx*acyt)
	if det >= errBound || -det >= errBound {
		return sign(det), true
	}

	// Stage D: add every tail term exactly.
	var c1 [8]float64
	var c2 [12]float64
	var d [16]float64
	u := productDiff(acxt, bcy, acyt, bcx)
	n1 := fastExpansionSumZeroelim(bb[:], u[:], c1[:])
	u = productDiff(acx, bcyt, acy, bcxt)
	n2 := fastExpansionSumZeroelim(c1[:n1], u[:], c2[:])
	u = productDiff(acxt, bcyt, acyt, bcxt)
	n := fastExpansionSumZeroelim(c2[:n2], u[:], d[:])
	return sign(d[n-1]), true
}

// liftedMinor writes (x² + y²)·m into h (room for 32 components) and
// returns its length: one vertex's term of the InCircle determinant from
// its lift and the 2×2 minor of the other two vertices.
//
//ridt:noalloc
func liftedMinor(m *[4]float64, x, y float64, h []float64) int {
	var xm, ym [8]float64
	var xxm, yym [16]float64
	n := scaleExpansionZeroelim(m[:], x, xm[:])
	nx := scaleExpansionZeroelim(xm[:n], x, xxm[:])
	n = scaleExpansionZeroelim(m[:], y, ym[:])
	ny := scaleExpansionZeroelim(ym[:n], y, yym[:])
	return fastExpansionSumZeroelim(xxm[:nx], yym[:ny], h)
}

// inCircleVertex is one of InCircle's three triangle corners relative to
// the query point: the rounded difference (x, y) and its tail (xt, yt).
type inCircleVertex struct {
	x, y, xt, yt float64
}

// inCircleAdapt runs stages B–D of InCircle (Shewchuk's incircleadapt)
// for a quadruple the stage-A filter could not certify; permanent is
// stage A's error scale. It returns the exact sign and true, or false
// when an atom lies outside the exponent window and only big.Rat is
// exact.
//
//ridt:noalloc
func inCircleAdapt(a, b, c, d Point, permanent float64) (int, bool) {
	v := [3]inCircleVertex{
		{x: a.X - d.X, y: a.Y - d.Y},
		{x: b.X - d.X, y: b.Y - d.Y},
		{x: c.X - d.X, y: c.Y - d.Y},
	}
	for i := range v {
		if !inWindow(v[i].x) || !inWindow(v[i].y) {
			return 0, false
		}
	}

	// Stage B: the exact determinant of the rounded differences, as the
	// sum over vertices i of lift_i · minor_i, where minor_i is the 2×2
	// determinant of the next two vertices j, k in cyclic order.
	var minor [3][4]float64
	var term [3][32]float64
	var tn [3]int
	for i := range v {
		j, k := &v[(i+1)%3], &v[(i+2)%3]
		minor[i] = productDiff(j.x, k.y, k.x, j.y)
		tn[i] = liftedMinor(&minor[i], v[i].x, v[i].y, term[i][:])
	}
	var ab [64]float64
	var fin [96]float64
	n := fastExpansionSumZeroelim(term[0][:tn[0]], term[1][:tn[1]], ab[:])
	n = fastExpansionSumZeroelim(ab[:n], term[2][:tn[2]], fin[:])
	det := estimate(fin[:n])
	if errBound := inCircleBoundB * permanent; det >= errBound || -det >= errBound {
		return sign(det), true
	}
	v[0].xt, v[0].yt = twoDiffTail(a.X, d.X, v[0].x), twoDiffTail(a.Y, d.Y, v[0].y)
	v[1].xt, v[1].yt = twoDiffTail(b.X, d.X, v[1].x), twoDiffTail(b.Y, d.Y, v[1].y)
	v[2].xt, v[2].yt = twoDiffTail(c.X, d.X, v[2].x), twoDiffTail(c.Y, d.Y, v[2].y)
	exact := true
	for i := range v {
		if v[i].xt != 0 || v[i].yt != 0 {
			exact = false
			if !inWindow(v[i].xt) || !inWindow(v[i].yt) {
				return 0, false
			}
		}
	}
	if exact {
		// Exact differences: fin is the determinant itself.
		return sign(fin[n-1]), true
	}

	// Stage C: add the first-order tail terms in floating point.
	errBound := inCircleBoundC*permanent + resultErrBound*math.Abs(det)
	det += (inCircleFirstOrder(&v[0], &v[1], &v[2]) + inCircleFirstOrder(&v[1], &v[2], &v[0])) +
		inCircleFirstOrder(&v[2], &v[0], &v[1])
	if det >= errBound || -det >= errBound {
		return sign(det), true
	}
	return inCircleTails(&v, &minor, fin[:n]), true
}

// inCircleFirstOrder is vertex p's stage-C term, the first-order tail part
// of lift_p·minor_p in floating point; q and r follow p in cyclic order.
//
//ridt:noalloc
func inCircleFirstOrder(p, q, r *inCircleVertex) float64 {
	return (p.x*p.x+p.y*p.y)*((q.x*r.yt+r.y*q.xt)-(q.y*r.xt+r.x*q.yt)) +
		2*(p.x*p.xt+p.y*p.yt)*(q.x*r.y-q.y*r.x)
}

// inCircleAcc accumulates InCircle's stage-D expansion in two buffers that
// trade places on every addition. 1152 components bound the stage-B sum
// (96) plus every tail term (Shewchuk's fin1/fin2).
type inCircleAcc struct {
	buf [2][1152]float64
	cur int
	n   int
}

//ridt:noalloc
func (s *inCircleAcc) add(e []float64) {
	o := 1 - s.cur
	s.n = fastExpansionSumZeroelim(s.buf[s.cur][:s.n], e, s.buf[o][:])
	s.cur = o
}

// addScaled2 adds e·x·y.
//
//ridt:noalloc
func (s *inCircleAcc) addScaled2(e []float64, x, y float64) {
	var es [8]float64
	var est [16]float64
	n := scaleExpansionZeroelim(e, x, es[:])
	n = scaleExpansionZeroelim(es[:n], y, est[:])
	s.add(est[:n])
}

// addFirstOrder adds one tail t's first-order terms: mt·h2 (mt = minor·t,
// h2 = 2·head), the tail's share of its own vertex's lift times that
// vertex's minor, plus t·(l1·s1 + l2·s2), its share of the other two
// vertices' minors times their lifts.
//
//ridt:noalloc
func (s *inCircleAcc) addFirstOrder(mt []float64, h2 float64, l1 *[4]float64, s1 float64, l2 *[4]float64, s2, t float64) {
	var a, b, c [16]float64
	var lt [8]float64
	na := scaleExpansionZeroelim(mt, h2, a[:])
	n := scaleExpansionZeroelim(l1[:], t, lt[:])
	nb := scaleExpansionZeroelim(lt[:n], s1, b[:])
	n = scaleExpansionZeroelim(l2[:], t, lt[:])
	nc := scaleExpansionZeroelim(lt[:n], s2, c[:])
	var ab [32]float64
	var abc [48]float64
	n = fastExpansionSumZeroelim(a[:na], b[:nb], ab[:])
	n = fastExpansionSumZeroelim(c[:nc], ab[:n], abc[:])
	s.add(abc[:n])
}

// addHigherOrder adds the terms of one tail t of a vertex that the
// first-order pass left out: mt·t (mt = minor·t), and, with mT and mTT
// the first- and second-order tail parts of the vertex's minor and h2 =
// 2·head, (mT + mTT)·t·(h2 + t).
//
//ridt:noalloc
func (s *inCircleAcc) addHigherOrder(mt, mT, mTT []float64, h2, t float64) {
	var mtt, x16, y16 [16]float64
	var mTt, x32, y32 [32]float64
	var mTTt [8]float64
	var x48 [48]float64
	var x64 [64]float64

	na := scaleExpansionZeroelim(mt, t, mtt[:])
	nT := scaleExpansionZeroelim(mT, t, mTt[:])
	nb := scaleExpansionZeroelim(mTt[:nT], h2, x32[:])
	n := fastExpansionSumZeroelim(mtt[:na], x32[:nb], x48[:])
	s.add(x48[:n])

	na = scaleExpansionZeroelim(mTt[:nT], t, x32[:])
	nTT := scaleExpansionZeroelim(mTT, t, mTTt[:])
	nb = scaleExpansionZeroelim(mTTt[:nTT], h2, x16[:])
	nc := scaleExpansionZeroelim(mTTt[:nTT], t, y16[:])
	n = fastExpansionSumZeroelim(x16[:nb], y16[:nc], y32[:])
	n = fastExpansionSumZeroelim(x32[:na], y32[:n], x64[:])
	s.add(x64[:n])
}

// inCircleTails is InCircle's stage D: it adds to the stage-B expansion
// fin every term of the determinant that involves a tail, and returns the
// exact sign. Writing vertex i's difference as head + tail (X + x,
// Y + y), its term lift_i · minor_i expands into the stage-B head product
// plus tail terms of first and higher order. It is kept out of
// inCircleAdapt so that only quadruples reaching it pay for clearing its
// 18 KB of stack buffers.
//
//ridt:noalloc
func inCircleTails(v *[3]inCircleVertex, minor *[3][4]float64, fin []float64) int {
	var s inCircleAcc
	s.n = copy(s.buf[0][:], fin)
	var lift [3][4]float64
	for i := range v {
		lift[i] = sumOfSquares(v[i].x, v[i].y)
	}

	// First order, with q and r the vertices after p in cyclic order: the
	// determinant's derivative in p.x is 2·p.x·minor_p + lift_r·q.y −
	// lift_q·r.y, and in p.y it is 2·p.y·minor_p + lift_q·r.x −
	// lift_r·q.x; each tail adds itself times its derivative.
	var xm, ym [3][8]float64
	var xn, yn [3]int
	for i := range v {
		p, q, r := &v[i], &v[(i+1)%3], &v[(i+2)%3]
		lq, lr := &lift[(i+1)%3], &lift[(i+2)%3]
		if p.xt != 0 {
			xn[i] = scaleExpansionZeroelim(minor[i][:], p.xt, xm[i][:])
			s.addFirstOrder(xm[i][:xn[i]], 2*p.x, lr, q.y, lq, -r.y, p.xt)
		}
		if p.yt != 0 {
			yn[i] = scaleExpansionZeroelim(minor[i][:], p.yt, ym[i][:])
			s.addFirstOrder(ym[i][:yn[i]], 2*p.y, lq, r.x, lr, -q.x, p.yt)
		}
	}

	// Higher order, per vertex with a tail.
	for i := range v {
		p, q, r := &v[i], &v[(i+1)%3], &v[(i+2)%3]
		if p.xt == 0 && p.yt == 0 {
			continue
		}
		// The tail parts of minor_i = q.x·r.y − r.x·q.y: first order mT
		// and second order mTT.
		var mT [8]float64
		var mTT [4]float64
		nT, nTT := 1, 1
		if q.xt != 0 || q.yt != 0 || r.xt != 0 || r.yt != 0 {
			i1, i0 := twoProduct(q.xt, r.y)
			j1, j0 := twoProduct(q.x, r.yt)
			u := twoTwoSum(i1, i0, j1, j0)
			i1, i0 = twoProduct(r.xt, -q.y)
			j1, j0 = twoProduct(r.x, -q.yt)
			w := twoTwoSum(i1, i0, j1, j0)
			nT = fastExpansionSumZeroelim(u[:], w[:], mT[:])
			mTT = productDiff(q.xt, r.yt, r.xt, q.yt)
			nTT = 4
		}
		lq, lr := &lift[(i+1)%3], &lift[(i+2)%3]
		if p.xt != 0 {
			s.addHigherOrder(xm[i][:xn[i]], mT[:nT], mTT[:nTT], 2*p.x, p.xt)
			// lift_r·p.xt·q.yt and −lift_q·p.xt·r.yt: the second-order
			// tail parts of the other two minors that involve p.xt.
			if q.yt != 0 {
				s.addScaled2(lr[:], p.xt, q.yt)
			}
			if r.yt != 0 {
				s.addScaled2(lq[:], -p.xt, r.yt)
			}
		}
		if p.yt != 0 {
			s.addHigherOrder(ym[i][:yn[i]], mT[:nT], mTT[:nTT], 2*p.y, p.yt)
		}
	}
	return sign(s.buf[s.cur][s.n-1])
}
