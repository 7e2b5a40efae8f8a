package main

// Example pins the example's whole transcript: the analytic decision
// surface and the one cell checked against the message-level simulator,
// which runs the one-shot recursive halving/doubling at p = 256.
func Example() {
	main()
	// Output:
	// best all-reduce per (gradient size, nodes) on TaihuLight:
	// bytes\nodes  4              16            64            256           1024
	// 1.02e+03     rhd 0.00622ms  rhd 0.0123ms  rhd 0.0183ms  rhd 0.0243ms  rhd+topo 0.0303ms
	// 2.62e+05     rhd 0.0929ms   rhd 0.143ms   rhd 0.183ms   rhd 0.0996ms  rhd+topo 0.106ms
	// 1.68e+07     rhd 3.68ms     rhd 4.62ms    rhd 4.89ms    rhd 4.98ms    rhd+topo 5.06ms
	// 2.33e+08     rhd 50.5ms     rhd 63.2ms    rhd 66.4ms    rhd 67.2ms    rhd+topo 67.8ms
	//
	// validating p=256, 2.326e+08 bytes against the simulator:
	//   adjacent     simulated 0.1623s, analytic 0.1623s
	//   round-robin  simulated 0.0687s, analytic 0.0687s
}
