package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"datacell"
	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/ingest"
	"datacell/internal/wal"
)

// stMaxTuples caps the single-threaded replay.
const stMaxTuples = 400_000

// stResult is the single-threaded baseline: the nominal step's frames
// replayed on one goroutine through each layer's public entry point.
type stResult struct {
	tuples                    int64
	decode, wal, append, fire time.Duration
}

// replay feeds the nominal step's frames (at most stMaxTuples of them)
// through FrameReader.DecodeFrameInto, the WAL's LogBatch (durable
// workloads), Engine.Append and Engine.RunSync on a P=1 engine with the
// workload's queries, timing each call.
func (r *runner) replay() (stResult, error) {
	var res stResult
	s := r.steps[1]
	frames := min(s.frames, stMaxTuples/frameTuples)

	opts := append(append([]datacell.Option(nil), r.w.options...), datacell.WithParallelism(1))
	eng := datacell.New(opts...)
	defer eng.Stop()
	if err := eng.Err(); err != nil {
		return res, err
	}
	if _, err := eng.Exec(r.w.schema.ddl(r.w.stream)); err != nil {
		return res, err
	}
	var outs []*basket.Basket
	for _, q := range r.w.queries {
		if err := eng.RegisterQuery(q.name, q.sql); err != nil {
			return res, err
		}
		out, err := eng.Out(q.name)
		if err != nil {
			return res, err
		}
		outs = append(outs, out)
	}
	var lg *wal.Log
	if r.w.wal {
		l, _, err := wal.Open(filepath.Join(r.dir, "st-wal"), wal.Options{})
		if err != nil {
			return res, err
		}
		defer l.Close()
		lg = l
	}

	fe := newFrameEncoder(r.w, r.seed)
	dec := bat.NewEmptyRelation(r.w.schema.names, r.w.schema.types)
	src := bytes.NewReader(nil)
	br := bufio.NewReaderSize(src, 64<<10)
	fr := ingest.NewFrameReader(br, r.w.schema.types)
	rows := make([]datacell.Row, frameTuples)
	vals := make([]any, frameTuples*len(r.w.schema.names))
	for i := range rows {
		rows[i] = vals[i*len(r.w.schema.names) : (i+1)*len(r.w.schema.names)]
	}
	for g := int64(0); g < frames; g++ {
		buf, err := fe.encode(s, g)
		if err != nil {
			return res, err
		}
		src.Reset(buf)
		br.Reset(src)
		dec.Clear()

		t0 := time.Now()
		n, err := fr.DecodeFrameInto(dec)
		t1 := time.Now()
		if err != nil {
			return res, fmt.Errorf("decoding frame %d: %w", g, err)
		}
		res.decode += t1.Sub(t0)
		r.tr.add("st.decode", 0, frameID(s.idx, g), t0, t1)
		if lg != nil {
			t0 = time.Now()
			_, err := lg.LogBatch(dec)
			t1 = time.Now()
			if err != nil {
				return res, err
			}
			res.wal += t1.Sub(t0)
			r.tr.add("st.wal", 0, frameID(s.idx, g), t0, t1)
		}
		for c := range r.w.schema.names {
			col := dec.Col(c).Ints()
			for i := 0; i < n; i++ {
				rows[i][c] = col[i]
			}
		}
		t0 = time.Now()
		err = eng.Append(r.w.stream, rows[:n]...)
		t1 = time.Now()
		if err != nil {
			return res, err
		}
		res.append += t1.Sub(t0)
		r.tr.add("st.append", 0, frameID(s.idx, g), t0, t1)
		t0 = time.Now()
		err = eng.RunSync()
		t1 = time.Now()
		if err != nil {
			return res, err
		}
		res.fire += t1.Sub(t0)
		r.tr.add("st.fire", 0, frameID(s.idx, g), t0, t1)
		res.tuples += int64(n)
		for _, o := range outs {
			o.TakeAll()
		}
	}
	return res, nil
}
