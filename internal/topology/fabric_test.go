package topology

import (
	"math"
	"testing"
)

// testFabric prices 8 ranks in two supernodes of four (0–3 and 4–7),
// with a wire size that is not a whole multiple of the element count.
func testFabric() Fabric {
	net := Sunway()
	net.SupernodeSize = 4
	f := NewFabric(net, AdjacentMapping{Q: 4}, 8)
	f.BytesPerElem = 3.5
	return f
}

// TestFabricAssociation pins Send, Arrive and Reduce bit for bit to
// their hand-written expressions. The sender is free at now + (α + βn)
// and a message lands at (start + α) + βn: the inputs include clocks
// where the two association orders round differently, so swapping the
// rules fails here, not only in a golden far downstream. The expected
// values round their products explicitly, as the Fabric does, so that
// arm64 does not fuse them either.
func TestFabricAssociation(t *testing.T) {
	f := testFabric()
	sendDiffers, arriveDiffers := false, false
	for _, link := range [][2]int{{0, 1}, {0, 5}, {6, 2}} {
		for _, elems := range []int{0, 1, 3, 100, 1000, 1 << 20} {
			for _, now := range []float64{0, 1e-6, 0.1, 1.0 / 3, 7.25e-4, 12345.678} {
				for _, sent := range []float64{0, now / 2, now * 3, 0.3} {
					src, dst := link[0], link[1]
					bytes := int64(float64(elems) * f.BytesPerElem)
					alpha := f.Net.Alpha(bytes)
					bn := float64(float64(bytes) * f.Net.Beta(f.Supernodes().Same(src, dst)))
					start := now
					if sent > start {
						start = sent
					}
					wantSend, wantArrive := now+(alpha+bn), (start+alpha)+bn
					if got := f.Send(src, dst, elems, now); math.Float64bits(got) != math.Float64bits(wantSend) {
						t.Fatalf("Send(%d→%d, %d, %v) = %v, want now + (α + βn) = %v", src, dst, elems, now, got, wantSend)
					}
					if got := f.Arrive(src, dst, elems, now, sent); math.Float64bits(got) != math.Float64bits(wantArrive) {
						t.Fatalf("Arrive(%d→%d, %d, %v, %v) = %v, want (start + α) + βn = %v", src, dst, elems, now, sent, got, wantArrive)
					}
					sendDiffers = sendDiffers || wantSend != (now+alpha)+bn
					arriveDiffers = arriveDiffers || wantArrive != start+(alpha+bn)
				}
			}
		}
	}
	if !sendDiffers || !arriveDiffers {
		t.Fatalf("no input tells the association orders apart (send %v, arrive %v)", sendDiffers, arriveDiffers)
	}

	for _, cpe := range []bool{false, true} {
		f.ReduceOnCPE = cpe
		gamma := f.Net.GammaMPE
		if cpe {
			gamma = f.Net.GammaCPE
		}
		for _, elems := range []int{0, 1, 4097, 1 << 20} {
			for _, now := range []float64{0, 0.1, 1.0 / 3} {
				want := now + float64(float64(elems)*f.BytesPerElem*gamma)
				if got := f.Reduce(elems, now); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Reduce(%d, %v) on CPE=%v = %v, want %v", elems, now, cpe, got, want)
				}
			}
		}
	}
}

// TestFabricArriveNaN: the arrival rule raises start to the send time
// only when the send time is greater, so a NaN clock stays NaN and a
// NaN send time is ignored — unlike the max builtin, which returns NaN
// for both.
func TestFabricArriveNaN(t *testing.T) {
	f := testFabric()
	nan := math.NaN()
	if got := f.Arrive(0, 1, 10, nan, 1); !math.IsNaN(got) {
		t.Fatalf("Arrive with a NaN clock = %v, want NaN", got)
	}
	if got, want := f.Arrive(0, 1, 10, 1, nan), f.Arrive(0, 1, 10, 1, 0); got != want {
		t.Fatalf("Arrive with a NaN send time = %v, want the receiver's own %v", got, want)
	}
}

// TestFabricCross: the census counts a message when it leaves its
// supernode, with its virtual wire size; an empty one counts with 0.
func TestFabricCross(t *testing.T) {
	f := testFabric()
	for _, tc := range []struct {
		src, dst, elems int
		cross           bool
		bytes           int64
	}{
		{0, 3, 10, false, 0}, // intra-supernode
		{2, 5, 10, true, 35}, // across: 10 elements × 3.5 B
		{7, 0, 0, true, 0},   // across, empty
	} {
		cross, bytes := f.Cross(tc.src, tc.dst, tc.elems)
		if cross != tc.cross || bytes != tc.bytes {
			t.Errorf("Cross(%d→%d, %d) = (%v, %d), want (%v, %d)", tc.src, tc.dst, tc.elems, cross, bytes, tc.cross, tc.bytes)
		}
	}
}

// TestNewResult: the makespan is the largest clock, and the result
// keeps the run's clocks without copying them (they stay the cluster's).
func TestNewResult(t *testing.T) {
	clocks := []float64{0.5, 2, 1}
	res := NewResult(clocks, 3, 2, 1)
	if res.Time != 2 || res.Clocks[1] != 2 || res.Msgs != 3 || res.CrossMsgs != 2 || res.CrossBytes != 1 {
		t.Fatalf("NewResult = %+v", res)
	}
	if &res.Clocks[0] != &clocks[0] {
		t.Fatal("NewResult copied the clocks")
	}
	if got := testing.AllocsPerRun(10, func() { res = NewResult(clocks, 3, 2, 1) }); got != 0 {
		t.Fatalf("NewResult allocates %v objects", got)
	}
}
