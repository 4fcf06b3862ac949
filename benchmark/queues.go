package main

import "adhocsim/internal/sim"

// The only two-path symbols the benchmark touches live in this file: the
// city workloads run on the calendar queue, as the tier they copy does, and
// the hold-model probe prices both queues at a workload's pending depth.
const cityScheduler = sim.QueueCalendar

var probedQueues = []struct {
	Metric string
	Kind   sim.QueueKind
}{
	{"sim.heap_ns_per_event", sim.QueueHeap},
	{"sim.calendar_ns_per_event", sim.QueueCalendar},
}
