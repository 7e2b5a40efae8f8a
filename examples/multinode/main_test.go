package main

// Example pins the example's whole transcript: distributed SGD against
// the serial run on the concatenated batch, the modeled step, the
// engine's overlapped RHD and ring flushes, and the two rank mappings.
func Example() {
	main()
	// Output:
	// iter  0  dist loss 1.0778  serial loss 1.0778
	// iter 10  dist loss 0.0002  serial loss 0.0002
	// iter 20  dist loss 0.0000  serial loss 0.0000
	//
	// max parameter deviation dist-vs-serial after 30 iters: 1.79e-07
	// replica divergence across 8 workers: 0.00e+00
	// simulated all-reduce time (30 iters): 0.0003s
	// cluster runtime: 8 simulated nodes, 30 launches each; modeled last step = 964.66us compute + 10.01us exposed comm = 974.68us
	// accumulated modeled compute 0.0289s vs communication 0.0003s
	// engine recursive-halving-doubling   auto bucket    2 KB, 1 buckets: last step 974.68us, exposed comm 10.01us (divergence 0.0e+00)
	// engine ring                         auto bucket    2 KB, 1 buckets: last step 1008.12us, exposed comm 43.45us (divergence 0.0e+00)
	// mapping adjacent    : simulated comm for 10 iters = 0.000108s
	// mapping round-robin : simulated comm for 10 iters = 0.000102s
}
