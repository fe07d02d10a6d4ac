package main

// referenceSeed is the seed the reference hashes were taken at. At other
// seeds only the seed-independent checks apply.
const referenceSeed = 1

// referenceHashes are the SHA-256 sums of each workload's output at
// referenceSeed: the record stream of one episode for the stream
// workloads, the experiment's rendering for cluster3.
//
// The stream-durable sum is the one pcstream prints for the same flags:
//
//	pcstream -dir DIR -machine SandyBridge -workload Stress -load 0.5 \
//	    -attribution recalibrated -duration 120.5 -tick 100 -seed 1
//
// and the cluster3 sum is that of the rendering `pcbench -seed 1 cluster3`
// prints before its "[cluster3 completed in ...]" line.
var referenceHashes = map[string]string{
	"stream-durable": "2f100a040f0488841eb535baf5a9f3f7b2005a7269ca61912f581c13a8b17ba2",
	"stream-dense":   "0ac28602d7703f3ffb284ae9d17f8e5b7af44060e7164878ca7797442910c7a0",
	"cluster3":       "6b01a314aeb8ca14ca5bbe748315ab55ebf528d47d21117a83859fd331e65215",
}
