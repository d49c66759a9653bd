(** Text rendering of the regenerated tables, side by side with the paper's
    published numbers, plus CSV export. *)

val table1 : Experiments.table1_row list -> string
val table2 : Experiments.versus_row list -> string
val table3 : Experiments.versus_row list -> string

val shape_checks : Experiments.shape_check list -> string

val tables : Experiments.tables -> string
(** Tables 1, 2 and 3 and their shape checks, joined by blank lines —
    the text test/goldens/tables.golden pins byte for byte, and what
    [tats artifacts], the bench [tables] phase and [capture_goldens]
    print. *)

val pool_stats : Tats_util.Pool.stats -> string
(** Multi-line summary of a {!Tats_util.Pool} snapshot: pool size, batch /
    task / wait counters, and per-domain busy time with its share of the
    total (the [--stats] / bench view of parallel utilization). *)

val versus_csv : Experiments.versus_row list -> string
(** Header + one line per benchmark: measured power/max/avg for both
    approaches. *)

val table1_csv : Experiments.table1_row list -> string

val versus_markdown : title:string -> paper:Paper_data.versus array ->
  Experiments.versus_row list -> string
(** GitHub-flavoured markdown: one row per benchmark with measured and paper
    cells side by side (the format EXPERIMENTS.md uses). *)

val table1_markdown : Experiments.table1_row list -> string

val transient_demo : Experiments.transient_demo -> string
(** Fixed-format rendering of {!Experiments.transient_demo} — the
    transient/DTM golden (test/goldens/transient.golden) byte-compares
    this string. *)

val online_demo : Experiments.online_demo -> string
(** Fixed-format rendering of {!Experiments.online_demo} — the online
    golden (test/goldens/online.golden) byte-compares this string. *)

val hetero_demo : Experiments.hetero_demo -> string
(** Fixed-format rendering of {!Experiments.hetero_demo} — the
    heterogeneous-platform golden (test/goldens/hetero.golden)
    byte-compares this string. *)

val campaign_summary : Tats_campaign.Campaign.summary -> string
(** Fixed-format rendering of a campaign's cells in expansion order —
    what [tats campaign report] prints and what the campaign golden
    (test/goldens/campaign.golden) byte-compares. *)

val campaign_gate : Tats_campaign.Campaign.gate_report -> string
(** Human-readable gate verdict: per-finding drift/regression lines and
    a final PASS/FAIL ([tats campaign gate] exits 2 on FAIL). *)
