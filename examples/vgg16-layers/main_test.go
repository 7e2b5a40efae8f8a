package main

// Example pins the example's whole transcript: the plan table with the
// strategy each VGG-16 layer keeps, and the explicit pipeline's
// functional check on the CPE mesh (its error against the direct
// convolution, simulated time and traffic).
func Example() {
	main()
	// Output:
	// VGG-16 convolution plan selection (batch 128, one core group):
	// layer  implicit   explicit   chosen     GFlops
	// 1_1    -          4.27s      explicit   5.2
	// 1_2    4.31s      7.78s      implicit   109.9
	// 2_1    1.63s      2.45s      implicit   145.5
	// 2_2    2.36s      3.14s      implicit   200.4
	// 3_1    1.06s      0.73s      explicit   324.4
	// 3_2    1.79s      1.14s      explicit   415.7
	// 3_3    1.79s      1.14s      explicit   415.7
	// 4_1    0.84s      0.69s      explicit   341.5
	// 4_2    1.66s      1.33s      explicit   356.3
	// 4_3    1.66s      1.33s      explicit   356.3
	// 5_1    0.40s      0.61s      implicit   297.0
	// 5_2    0.40s      0.61s      implicit   297.0
	// 5_3    0.40s      0.61s      implicit   297.0
	//
	// functional check of the explicit pipeline on the CPE mesh:
	//   shape conv{B1 8x12x12 -> 16x12x12 k3 s1 p1}: max |sim - ref| = 5.7e-06, simulated time 269us
	//   simulator moved 279.3 KB over DMA and 294.9 KB over register buses
}
