// Command traced runs the repository benchmark with the per-layer trace
// available (-trace 1) and records reference digests (record).
package main

import (
	"mcnet/perfbench/harness"
	"mcnet/perfbench/layers"
)

func main() { harness.Main(layers.Tracer{}) }
