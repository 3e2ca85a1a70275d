// Command plotterctl is the client tooling of §4.5 (Fig. 6): it drives a
// plotter node's exported drawing service and queries/replays the movement
// history stored at a base station.
//
// Usage:
//
//	plotterctl -node 127.0.0.1:40001 -as artist draw "1,1 9,1 9,5 1,5 1,1"
//	plotterctl -node 127.0.0.1:40001 pen up|down
//	plotterctl -node 127.0.0.1:40001 pos
//	plotterctl -base 127.0.0.1:7000 query robot:1:1
//	plotterctl -base 127.0.0.1:7000 replay robot:1:1
//	plotterctl -base 127.0.0.1:7000 -scale 50 replay robot:1:1   # half-size reproduction
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/lvm"
	"repro/internal/plotter"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/weave"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		nodeAddr = flag.String("node", "", "plotter node service address")
		baseAddr = flag.String("base", "", "base station address")
		caller   = flag.String("as", "operator", "caller identity for service invocations")
		scale    = flag.Int64("scale", 100, "percentage applied to replayed movements (§4.5: amplify or reduce)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: draw | pen | pos | query | replay")
	}

	tcp := transport.NewTCPCaller()
	defer tcp.Close()

	switch args[0] {
	case "draw":
		if *nodeAddr == "" || len(args) < 2 {
			return fmt.Errorf("draw needs -node and a point list \"x,y x,y ...\"")
		}
		points, err := parsePoints(args[1])
		if err != nil {
			return err
		}
		for i, p := range points {
			method := "moveTo"
			if i > 0 {
				method = "line"
			}
			if _, err := svc.Call(tcp, *nodeAddr, plotter.ServiceName, method, *caller, lvm.Int(p[0]), lvm.Int(p[1])); err != nil {
				return fmt.Errorf("%s(%d,%d): %w", method, p[0], p[1], err)
			}
		}
		fmt.Printf("drew %d segments\n", len(points)-1)
	case "pen":
		if *nodeAddr == "" || len(args) < 2 {
			return fmt.Errorf("pen needs -node and up|down")
		}
		method := map[string]string{"up": "penUp", "down": "penDown"}[args[1]]
		if method == "" {
			return fmt.Errorf("pen position must be up or down")
		}
		if _, err := svc.Call(tcp, *nodeAddr, plotter.ServiceName, method, *caller); err != nil {
			return err
		}
		fmt.Printf("pen %s\n", args[1])
	case "pos":
		if *nodeAddr == "" {
			return fmt.Errorf("pos needs -node")
		}
		v, err := svc.Call(tcp, *nodeAddr, plotter.ServiceName, "position", *caller)
		if err != nil {
			return err
		}
		fmt.Printf("pen at (%s)\n", v)
	case "query":
		recs, err := fetch(tcp, *baseAddr, args)
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Printf("%6d  %-12s %-10s %-12s %6d\n", r.Seq, r.Robot, r.Device, r.Action, r.Value)
		}
		fmt.Printf("%d records\n", len(recs))
	case "replay":
		recs, err := fetch(tcp, *baseAddr, args)
		if err != nil {
			return err
		}
		canvas := plotter.NewCanvas(40, 20)
		plot, err := plotter.New(weave.New(), canvas)
		if err != nil {
			return err
		}
		if *scale <= 0 {
			return fmt.Errorf("scale must be positive")
		}
		// Re-scale x/y movements, accumulating the fractional remainder per
		// device so sequences of unit steps scale correctly; the pen axis
		// keeps its direction.
		carry := make(map[string]int64)
		var cmds []plotter.ReplayCommand
		for _, r := range recs {
			v := r.Value
			if r.Action == "rotate" && r.Device != "motor:z" && r.Device != "Motor:z" {
				carry[r.Device] += r.Value * *scale
				v = carry[r.Device] / 100
				carry[r.Device] -= v * 100
			}
			cmds = append(cmds, plotter.ReplayCommand{Device: r.Device, Action: r.Action, Value: v})
		}
		if err := plot.Replay(cmds); err != nil {
			return err
		}
		fmt.Printf("replayed %d movements:\n%s", len(cmds), canvas.Render())
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return nil
}

func fetch(tcp transport.Caller, baseAddr string, args []string) ([]store.Record, error) {
	if baseAddr == "" {
		return nil, fmt.Errorf("%s needs -base", args[0])
	}
	path := "/records"
	if len(args) > 1 {
		path += "?robot=" + url.QueryEscape(args[1])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	body, err := transport.Ops(ctx, tcp, baseAddr, path)
	if err != nil {
		return nil, err
	}
	var recs []store.Record
	if err := json.Unmarshal(body, &recs); err != nil {
		return nil, fmt.Errorf("%s %s: %w", baseAddr, path, err)
	}
	return recs, nil
}

func parsePoints(src string) ([][2]int64, error) {
	var out [][2]int64
	for _, part := range strings.Fields(src) {
		xs, ys, ok := strings.Cut(part, ",")
		if !ok {
			return nil, fmt.Errorf("bad point %q (want x,y)", part)
		}
		x, err1 := strconv.ParseInt(xs, 10, 64)
		y, err2 := strconv.ParseInt(ys, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad point %q", part)
		}
		out = append(out, [2]int64{x, y})
	}
	if len(out) < 1 {
		return nil, fmt.Errorf("no points given")
	}
	return out, nil
}
