package main

import (
	"fmt"

	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/topo"
)

// sceneCmd inspects a scenario without running traffic: it prints the CBR
// connection list, connectivity statistics over time and, with -pos, the
// mobility trace — the equivalent of eyeballing ns-2 scenario files before
// a run.
func sceneCmd(c *cli, args []string) int {
	scene := c.scenarioFlags()
	every := c.Float64("every", 10, "sampling interval (s)")
	pos := c.Bool("pos", false, "print per-node positions at each sample")
	c.parse(args, 0)
	if *every <= 0 {
		c.usageError("-every %g: sampling interval must be positive", *every)
	}

	spec := scenario.Default()
	scene.apply(c, &spec)
	inst, err := spec.Generate(*scene.seed)
	if err != nil {
		c.fatal(err)
	}

	fmt.Printf("scenario: %d nodes, %.0fx%.0f m, pause %.0fs, speed %.0f m/s, seed %d\n",
		*scene.nodes, *scene.w, *scene.h, *scene.pause, *scene.speed, *scene.seed)
	fmt.Println("\nconnections:")
	for _, conn := range inst.Connections {
		fmt.Printf("  %v -> %v  %.1f pkt/s x %dB starting %v\n", conn.Src, conn.Dst, conn.Rate, conn.PayloadBytes, conn.Start)
	}

	fmt.Println("\nconnectivity over time (radio range", inst.Radio.RxRange(), "m):")
	fmt.Printf("%8s %10s %12s %12s\n", "t(s)", "avg-degree", "components", "connected")
	for t := 0.0; t <= *scene.dur; t += *every {
		g := topo.Snapshot(inst.Tracks, sim.At(t), inst.Radio.RxRange())
		fmt.Printf("%8.0f %10.2f %12d %12v\n", t, g.AvgDegree(), g.Components(), g.Connected())
		if *pos {
			for i, tr := range inst.Tracks {
				p := tr.At(sim.At(t))
				fmt.Printf("    n%-3d (%7.1f, %6.1f)\n", i, p.X, p.Y)
			}
		}
	}
	return 0
}
