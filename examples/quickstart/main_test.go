package main

// Example pins the example's whole transcript: the net's shape, the
// SGD loss curve and the per-device price of one iteration.
func Example() {
	main()
	// Output:
	// net "quickstart": 4 layers, 4 parameters (5.4 KB all-reduce payload)
	// iter   0  loss 1.4295  lr 0.100
	// iter  30  loss 0.0000  lr 0.100
	// iter  60  loss 0.0000  lr 0.100
	// iter  90  loss 0.0000  lr 0.100
	// iter 120  loss 0.0000  lr 0.050
	// iter 149  loss 0.0000  lr 0.050
	//
	// estimated single-iteration time by device:
	//   SW26010    fwd 166us  bwd 284us
	//   K40m       fwd 32.2us  bwd 48.3us
	//   E5-2680v3  fwd 9.04us  bwd 13.8us
}
