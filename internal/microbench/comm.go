package microbench

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"datacell/internal/core"
	"datacell/internal/ingest"
	"datacell/internal/stream"
)

// CommResult is one point of the Figure 4 experiment: a full pipeline with
// inter-process communication from a sensor process over TCP through the
// kernel (a query chain) and back over TCP to an actuator process.
type CommResult struct {
	Queries    int
	Tuples     int
	WithKernel bool
	Elapsed    time.Duration // E(b): first tuple created -> last tuple delivered
	Throughput float64       // tuples per second end to end
	AvgLatency time.Duration // mean per-tuple latency L(t) = D(t) - C(t)
}

// RunCommPipeline measures the elapsed time and throughput of shipping
// `tuples` two-column tuples from a sensor through a chain of q
// `select *` queries to an actuator, all over localhost TCP. The sensor's
// textual lines enter through the engine's receptor, an ingest.Group,
// and take the same first-bytes protocol sniff as any user connection.
// With withKernel=false the sensor feeds the actuator directly, isolating
// the pure communication overhead (the flat curve of Figure 4a).
func RunCommPipeline(q, tuples int, withKernel bool) (CommResult, error) {
	res := CommResult{Queries: q, Tuples: tuples, WithKernel: withKernel}

	// Actuator: a TCP server collecting result tuples and computing
	// latency from the embedded creation timestamps.
	actLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer actLn.Close()
	type actStats struct {
		n       int
		latSum  time.Duration
		last    time.Time
		doneErr error
	}
	actDone := make(chan actStats, 1)
	go func() {
		var st actStats
		conn, err := actLn.Accept()
		if err != nil {
			st.doneErr = err
			actDone <- st
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			sep := strings.IndexByte(line, '|')
			if sep < 0 {
				continue
			}
			created, err := strconv.ParseInt(line[:sep], 10, 64)
			if err != nil {
				continue
			}
			now := time.Now()
			st.n++
			st.latSum += now.Sub(time.UnixMicro(created))
			st.last = now
			if st.n >= tuples {
				break
			}
		}
		st.doneErr = sc.Err()
		actDone <- st
	}()

	var sensorTarget string
	var sch *core.Scheduler
	var closers []func()
	if withKernel {
		sch = core.NewScheduler()
		in, out, err := QueryChain(q, sch)
		if err != nil {
			return res, err
		}
		names, types := in.UserSchema()
		rx, err := ingest.Listen(in.Name(), "127.0.0.1:0", names, types,
			ingest.NewSwitchTarget(ingest.BasketSink(in)), ingest.Options{})
		if err != nil {
			return res, err
		}
		closers = append(closers, rx.Close)
		em := stream.NewEmitter(out)
		actConn, err := net.Dial("tcp", actLn.Addr().String())
		if err != nil {
			return res, err
		}
		em.SubscribeWriter(actConn)
		em.Start()
		closers = append(closers, func() { em.Stop(); actConn.Close() })
		if err := sch.Start(); err != nil {
			return res, err
		}
		closers = append(closers, sch.Stop)
		sensorTarget = rx.Addrs()[0]
	} else {
		sensorTarget = actLn.Addr().String()
	}

	// Sensor: a separate goroutine standing in for the sensor process,
	// creating tuples with their creation timestamp in column one.
	start := time.Now()
	senderErr := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", sensorTarget)
		if err != nil {
			senderErr <- err
			return
		}
		w := bufio.NewWriter(conn)
		for i := 0; i < tuples; i++ {
			fmt.Fprintf(w, "%d|%d\n", time.Now().UnixMicro(), i%10000)
		}
		w.Flush()
		// Keep the connection open until the actuator confirms; closing
		// early would tear down the pipeline in kernel-less mode.
		senderErr <- nil
		time.Sleep(50 * time.Millisecond)
		conn.Close()
	}()

	if err := <-senderErr; err != nil {
		return res, err
	}
	select {
	case st := <-actDone:
		if st.doneErr != nil && st.n < tuples {
			return res, fmt.Errorf("microbench: actuator: %w after %d tuples", st.doneErr, st.n)
		}
		res.Elapsed = st.last.Sub(start)
		if st.n > 0 {
			res.AvgLatency = st.latSum / time.Duration(st.n)
			res.Throughput = float64(st.n) / res.Elapsed.Seconds()
		}
	case <-time.After(2 * time.Minute):
		return res, fmt.Errorf("microbench: pipeline stalled")
	}
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
	return res, nil
}
