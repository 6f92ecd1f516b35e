// Command e2e runs the repository benchmark with tracing off: every
// operation goes through the public mcnet facade only.
package main

import "mcnet/perfbench/harness"

func main() { harness.Main(nil) }
