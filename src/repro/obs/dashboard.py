"""The single-file live ops dashboard served at ``/`` by the exporter.

Plain HTML + vanilla JavaScript, zero dependencies: the page polls
``/snapshot`` every two seconds and renders queue depth, coalescing /
cache hit rates, per-shard (or per-worker) executed counts and latency
percentiles.  There is one snapshot shape (``AdmissionShell.snapshot``); a
cluster's adds ``shards`` / ``shard_count`` / ``restarts``, which the page
shows when present, as the CLI stats line does.

Keeping the page a Python string (rather than a data file) keeps the
exporter import-only deployable: ``python -m repro.cli serve …
--metrics-port 0`` works from a zipapp or a bare checkout alike.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro ops dashboard</title>
<style>
  :root { color-scheme: dark; }
  body { font-family: 'Segoe UI', system-ui, sans-serif; margin: 0;
         background: #11161d; color: #dbe4ee; }
  header { padding: 14px 22px; background: #171e27;
           border-bottom: 1px solid #2b3644; display: flex;
           justify-content: space-between; align-items: baseline; }
  header h1 { font-size: 17px; margin: 0; font-weight: 600; }
  header .sub { color: #7d89a6; font-size: 12px; }
  main { padding: 18px 22px; max-width: 1100px; margin: 0 auto; }
  .tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(150px, 1fr));
           gap: 12px; margin-bottom: 18px; }
  .tile { background: #171e27; border: 1px solid #263040; border-radius: 8px;
          padding: 12px 14px; }
  .tile .label { font-size: 11px; text-transform: uppercase;
                 letter-spacing: .06em; color: #7d89a6; }
  .tile .value { font-size: 26px; font-weight: 650; margin-top: 4px;
                 font-variant-numeric: tabular-nums; }
  .tile .hint { font-size: 11px; color: #55617a; margin-top: 2px; }
  h2 { font-size: 13px; text-transform: uppercase; letter-spacing: .06em;
       color: #7d89a6; margin: 20px 0 8px; }
  table { border-collapse: collapse; width: 100%; font-size: 13px; }
  th, td { text-align: left; padding: 5px 10px; border-bottom: 1px solid #222c3a;
           font-variant-numeric: tabular-nums; }
  th { color: #7d89a6; font-weight: 500; }
  .bar { background: #223049; height: 10px; border-radius: 5px; overflow: hidden; }
  .bar > div { background: #4f9cf9; height: 100%; }
  .dead { color: #f97066; }
  .ok { color: #5dd4a3; }
  #error { color: #f97066; font-size: 12px; padding: 4px 0; min-height: 18px; }
  a { color: #4f9cf9; }
  footer { color: #55617a; font-size: 11px; padding: 14px 22px; }
</style>
</head>
<body>
<header>
  <h1>repro ops dashboard</h1>
  <span class="sub">polls <a href="/snapshot">/snapshot</a> every 2s &middot;
    <a href="/metrics">/metrics</a> &middot; <a href="/config">/config</a></span>
</header>
<main>
  <div id="error"></div>
  <div class="tiles" id="tiles"></div>
  <h2>Latency</h2>
  <table id="latency"><tbody></tbody></table>
  <h2 id="workers-title">Executed per shard</h2>
  <table id="workers"><tbody></tbody></table>
</main>
<footer>repro.obs &mdash; stdlib-only telemetry exporter</footer>
<script>
"use strict";
const fmtRate = v => (100 * (v || 0)).toFixed(0) + "%";
const fmtMs = v => ((v || 0) * 1000).toFixed(1) + " ms";

function tile(label, value, hint) {
  return `<div class="tile"><div class="label">${label}</div>` +
         `<div class="value">${value}</div>` +
         (hint ? `<div class="hint">${hint}</div>` : "") + `</div>`;
}

function render(snap) {
  const tiles = [
    tile("queue depth", snap.queue_depth ?? 0),
    tile("in flight", snap.inflight ?? 0),
    tile("submitted", snap.submitted ?? 0),
    tile("executed", snap.executed ?? 0),
    tile("coalescing", fmtRate(snap.coalescing_hit_rate),
         (snap.coalesced ?? 0) + " coalesced"),
    tile("cache hits", fmtRate(snap.cache_hit_rate),
         (snap.cache_hits ?? 0) + " hits"),
  ];
  const shards = snap.shards || [];
  if (snap.shards) {
    const alive = shards.filter(s => s.alive).length;
    tiles.push(tile("shards", alive + "/" + (snap.shard_count ?? 0),
                    (snap.restarts ?? 0) + " restarts"));
  }
  if (snap.failed) tiles.push(tile("failed", snap.failed));
  document.getElementById("tiles").innerHTML = tiles.join("");

  const l = snap.latency;
  const latencyRows = l && l.count ? [
    ["count", l.count], ["mean", fmtMs(l.mean_seconds)],
    ["p50", fmtMs(l.p50_seconds)], ["p90", fmtMs(l.p90_seconds)],
    ["p99", fmtMs(l.p99_seconds)]] : [];
  document.querySelector("#latency tbody").innerHTML = latencyRows
    .map(r => `<tr><th>${r[0]}</th><td>${r[1]}</td></tr>`).join("") ||
    "<tr><td>no completions yet</td></tr>";

  // Executed per shard (cluster) or per worker slot (thread service).
  const noun = snap.shards ? "shard" : "worker";
  document.getElementById("workers-title").textContent = "Executed per " + noun;
  const per = snap.executed_by || {};
  const max = Math.max(1, ...Object.values(per));
  const names = snap.shards ? shards.map(s => String(s.shard)) : Object.keys(per).sort();
  const rows = names.map((name, i) => {
    const n = per[name] || 0;
    const s = shards[i];
    const state = !s ? "" : s.alive ? `<span class="ok">alive</span>`
                                    : `<span class="dead">down</span>`;
    return `<tr><th>${noun} ${name}</th><td>${state}</td>` +
           `<td>${s ? "pid " + (s.pid ?? "-") : ""}</td><td>${n}</td>` +
           `<td style="width:40%"><div class="bar">` +
           `<div style="width:${(100 * n / max).toFixed(0)}%"></div></div></td></tr>`;
  });
  document.querySelector("#workers tbody").innerHTML = rows.join("") ||
    "<tr><td>nothing executed yet</td></tr>";
}

async function poll() {
  try {
    const response = await fetch("/snapshot", {cache: "no-store"});
    if (!response.ok) throw new Error("HTTP " + response.status);
    render(await response.json());
    document.getElementById("error").textContent = "";
  } catch (err) {
    document.getElementById("error").textContent =
      "snapshot unavailable: " + err.message;
  }
}
poll();
setInterval(poll, 2000);
</script>
</body>
</html>
"""
