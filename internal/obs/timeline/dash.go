package timeline

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// DashMounts returns the obs endpoint mounts for the live timeline
// dashboard:
//
//	/dash          the HTML dashboard (stdlib only: inline JS + SSE)
//	/dash/windows  all windows captured so far, as a JSON array
//	/dash/sse      Server-Sent Events: history replay then live windows
//
// st may be nil (timeline disabled); the endpoints then say so instead of
// 404ing, so the index link never dangles.
func DashMounts(st *Stream) []obs.Mount {
	return []obs.Mount{
		{Pattern: "/dash", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Write([]byte(dashHTML))
		})},
		{Pattern: "/dash/windows", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			ws := st.Windows()
			if ws == nil {
				ws = []Window{}
			}
			enc.Encode(ws)
		})},
		{Pattern: "/dash/sse", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			serveSSE(st, w, r)
		})},
	}
}

// serveSSE replays the windows captured so far, then streams each new
// window as it closes. Each event is one `data:` line holding the window's
// JSON. A disabled timeline sends a single "disabled" comment and returns.
func serveSSE(st *Stream, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "sse: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	if st == nil {
		w.Write([]byte(": timeline disabled (-sample-interval 0)\n\n"))
		fl.Flush()
		return
	}
	// Subscribe before replaying so no window slips between replay and
	// stream; the dashboard dedupes on index.
	ch, cancel := st.Subscribe(64)
	defer cancel()
	send := func(win Window) bool {
		b, err := json.Marshal(win)
		if err != nil {
			return false
		}
		if _, err := w.Write([]byte("data: " + string(b) + "\n\n")); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, win := range st.Windows() {
		if !send(win) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case win, open := <-ch:
			if !open {
				return
			}
			if !send(win) {
				return
			}
		}
	}
}

// dashHTML is the whole dashboard: a table of recent windows with unicode
// sparklines per metric family, stage and health annotations, and anomaly
// highlighting, fed by the SSE stream. No external assets.
const dashHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>pipeline timeline</title>
<style>
body{font:13px/1.5 ui-monospace,Menlo,monospace;background:#11161d;color:#c9d4e0;margin:1.5em}
h1{font-size:15px;color:#e3ecf5} .sub{color:#5d7289}
table{border-collapse:collapse;margin-top:1em} td,th{padding:2px 10px;text-align:right;border-bottom:1px solid #1d2632}
th{color:#5d7289;font-weight:normal} td.l,th.l{text-align:left}
.anom{color:#ff7b72;font-weight:bold} .breach{color:#e3b341} .stage{color:#7ee787}
.spark{color:#58a6ff;letter-spacing:1px} #families td{white-space:nowrap}
</style></head><body>
<h1>pipeline timeline <span class="sub" id="status">connecting…</span></h1>
<table id="families"><thead><tr><th class="l">series</th><th class="l">last 40 windows</th><th>latest</th></tr></thead><tbody></tbody></table>
<table id="wins"><thead><tr><th>win</th><th>end</th><th class="l">stage</th><th>counters</th><th class="l">anomalies</th><th class="l">breaches</th></tr></thead><tbody></tbody></table>
<script>
const wins=new Map(), hist=new Map(), BARS="▁▂▃▄▅▆▇█", KEEP=40;
function spark(vs){const m=Math.max(1,...vs);return vs.map(v=>BARS[Math.min(7,Math.round(v/m*7))]).join("")}
function fold(w){
  wins.set(w.index,w);
  const all=Object.assign({},w.counters||{},w.series||{});
  for(const [k,v] of Object.entries(all)){
    if(!hist.has(k))hist.set(k,[]);
    const h=hist.get(k);h.push(v);if(h.length>KEEP)h.shift();
  }
}
function render(){
  const fb=document.querySelector("#families tbody");fb.innerHTML="";
  [...hist.keys()].sort().forEach(k=>{
    const h=hist.get(k),tr=document.createElement("tr");
    tr.innerHTML='<td class="l">'+k+'</td><td class="l spark">'+spark(h)+'</td><td>'+h[h.length-1]+'</td>';
    fb.appendChild(tr);
  });
  const wb=document.querySelector("#wins tbody");wb.innerHTML="";
  [...wins.values()].slice(-25).reverse().forEach(w=>{
    const n=Object.values(w.counters||{}).reduce((a,b)=>a+b,0);
    const an=(w.anomalies||[]).map(a=>a.series+"("+a.kind+")").join(" ");
    const br=(w.breaches||[]).map(b=>b.rule+(b.group?"/"+b.group:"")).join(" ");
    const tr=document.createElement("tr");
    tr.innerHTML='<td>'+w.index+'</td><td>'+(w.end_us/1e6).toFixed(2)+'s</td>'+
      '<td class="l stage">'+((w.stages||[]).join("→")||w.stage||"")+'</td><td>'+n+'</td>'+
      '<td class="l anom">'+an+'</td><td class="l breach">'+br+'</td>';
    wb.appendChild(tr);
  });
}
const es=new EventSource("/dash/sse");
es.onopen=()=>document.getElementById("status").textContent="live";
es.onerror=()=>document.getElementById("status").textContent="disconnected (run over?)";
es.onmessage=e=>{fold(JSON.parse(e.data));render()};
</script></body></html>
`
