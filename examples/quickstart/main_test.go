package main

// Example runs the quickstart end to end — profiling, then SNS through
// the testbed scheduler, whose search takes its candidates from bucket
// scans — and pins what it prints: each program's class and ideal
// scale, then every job's footprint, ways and run time.
func Example() {
	main()
	// Output:
	// MG  class=scaling  ideal scale=8x
	// TS  class=scaling  ideal scale=8x
	// HC  class=neutral  ideal scale=8x
	// EP  class=neutral  ideal scale=1x
	//
	// job  prog  nodes  ways  run(s)
	// 0    MG        8     2    75.1
	// 3    EP        1     2    75.3
	// 1    TS        8     6   333.4
	// 2    HC        1     2   485.5
}
