package chaos

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzParseSpec holds ParseSpec to what it promises: a spec it accepts
// renders and parses back to the same canonical form, and applies to the
// a—b—c line without a panic while a frame crosses every port each
// millisecond, up to a millisecond past its horizon. The seeds include the
// two specs that once passed validation and then panicked the simulator.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"late-frame","faults":[{"kind":"impair","link":{"device":"a","peer":"b"},"start":"1ms","duration":"10ms","extra_latency":"-50ms"}]}`,
		`{"name":"overflow","faults":[{"kind":"flap-storm","link":{"device":"a","peer":"b"},"start":0,"flaps":4,"period":"2562047h","duty":0.5}]}`,
		`{"name":"jitter","faults":[{"kind":"gray-loss","link":{"device":"b","peer":"c"},"start":"1ms","duration":"5ms","loss_rate":0.5,"jitter":"-1ms"}]}`,
		`{"name":"down","faults":[{"kind":"down","link":{"device":"a","peer":"b"},"start":0},{"kind":"down","nodes":["c"],"start":"3ms"}]}`,
		`{"name":"mix","faults":[{"kind":"flap-storm","link":{"device":"b","peer":"a"},"start":0,"flaps":3,"period":"4ms","duty":0.25},` +
			`{"kind":"impair","link":{"device":"b","peer":"c"},"start":"2ms","duration":"6ms","corrupt_rate":0.5,"extra_latency":"1ms","jitter":"500us"},` +
			`{"kind":"oneway","link":{"device":"c","peer":"b"},"start":"1ms","duration":"3ms"},` +
			`{"kind":"correlated","links":[{"device":"a","peer":"b"},{"device":"c","peer":"b"}],"start":"1ms","duration":"2ms","stagger":"1ms"},` +
			`{"kind":"drain","nodes":["b","a"],"start":0,"duration":"2ms","stagger":"3ms"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		text, err := spec.Render()
		if err != nil {
			t.Fatalf("Render: %v", err)
		}
		again, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec rejects what Render wrote: %v\n%s", err, text)
		}
		if textAgain, _ := again.Render(); !bytes.Equal(textAgain, text) {
			t.Fatalf("round trip moved the spec:\n%s\nthen\n%s", text, textAgain)
		}
		// Apply schedules two events per flap up front: the bound keeps one
		// input's run short, it is not a limit of the package.
		for _, fault := range spec.Faults {
			if fault.Flaps > 1000 {
				return
			}
		}
		s, _ := fabric(t)
		if _, err := Apply(s, spec, nil); err != nil {
			return // a target the line does not have
		}
		var tick func()
		tick = func() {
			for _, name := range []string{"a", "b", "c"} {
				for _, p := range s.Node(name).Ports[1:] {
					p.Send([]byte("tick"))
				}
			}
			// Traffic covers the first two seconds, where the seeds act.
			if s.Now() < 2*time.Second {
				s.Schedule(time.Millisecond, tick)
			}
		}
		s.Schedule(0, tick)
		s.Start()
		end := spec.Horizon()
		if end <= math.MaxInt64-time.Millisecond {
			end += time.Millisecond
		}
		s.RunUntil(end)
	})
}
