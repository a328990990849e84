(** A static-timing DAG over standard cells.

    Nets carry separate rise and fall arrivals (time + slew).  Each
    gate input pin contributes candidate arrivals at the output through
    the corresponding timing arc (all built-in cells are inverting, so
    an input rise produces an output fall); the latest candidate wins
    per output edge — ordinary block-based STA, with the delay/slew
    numbers supplied by any {!Oracle.t}.

    Gates must be added after their driver nets (construction order is
    the topological order), which the builder enforces.  The builder is
    array-backed: net-name lookup is O(1) and per-net total capacitance
    is accumulated incrementally as fanout pins are connected, so no
    pass over the netlist is quadratic in its size.

    For repeated or large analyses, {!compile} snapshots the builder
    into an immutable {!compiled} graph: int-indexed pin arrays,
    pre-resolved timing-arc candidates, frozen per-output loads, and an
    ASAP levelization that lets each level's gates be timed in parallel
    over the {!Slc_num.Parallel} domain pool.  Parallel evaluation is
    bitwise identical to sequential ([Parallel.sequential]) evaluation:
    gates write disjoint result slots and oracle queries are pure and
    memoized first-publication-wins. *)

type t

type net

val create : Slc_device.Tech.t -> vdd:float -> t
(** An empty DAG; the technology supplies pin input capacitances (for
    loads) and [vdd] is the operating supply every arc is timed at. *)

val input : t -> string -> net
(** Declares a primary input net. *)

val gate :
  t -> Slc_cell.Cells.t -> pins:(string * net) list -> ?wire_cap:float ->
  string -> net
(** [gate dag cell ~pins name] instantiates [cell] with every input pin
    connected per [pins] and returns its output net.  Raises
    [Invalid_argument] on missing/extra pins. *)

val set_load : t -> net -> float -> unit
(** Extra capacitive load on a net (primary-output load). *)

type edge_arrival = { at : float; slew : float }

type arrival = { rise : edge_arrival option; fall : edge_arrival option }

val analyze :
  ?cache:Oracle.cache ->
  ?domains:int ->
  t ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  net ->
  arrival
(** Arrival at the given net once every primary input is given its
    arrival/slew per edge.  Nets driven only by non-arriving edges
    propagate [None] (e.g. a one-sided input transition yields
    alternating one-sided arrivals down an inverter chain).

    Oracle queries go through an exact query cache, private to the
    pass unless [?cache] supplies one to keep across calls.  Hits
    inside one pass need two gates with the same arc, input slew and
    output load, so the saving comes from re-running over a kept
    cache.  Either way the memo is exact, so results are identical to
    the unmemoized pass.

    [?domains] sizes the per-level parallel evaluation (default: the
    {!Slc_num.Parallel} pool default).  Results are bitwise independent
    of the domain count.  Compiles the graph internally; hot callers
    should {!compile} once and use {!analyze_compiled}. *)

type slack_row = {
  net_label : string;
  arrival_time : float;   (** worst (latest) arrival over both edges *)
  required_time : float;  (** earliest requirement propagated backward *)
  slack : float;          (** required - arrival; negative = violation *)
}

val slack_report :
  ?cache:Oracle.cache ->
  ?domains:int ->
  t ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  outputs:(net * float) list ->
  slack_row list
(** Full forward arrival pass plus a backward required-time pass from
    the given (output net, required time) constraints.  Returns one row
    per net that has a finite arrival, sorted most-critical first.
    Nets with no requirement reachable from them get infinite slack.
    Oracle queries are memoized as in {!analyze}. *)

val net_name : t -> net -> string
(** The label the net was created under.  O(1). *)

val net_cap : t -> net -> float
(** Total capacitance on a net: explicit loads ({!set_load} /
    [?wire_cap]) plus the input capacitance of every fanout pin
    connected so far.  O(1): fanout caps are accumulated as gates are
    added, in connection order, so the total is bitwise identical to a
    fresh summation over the netlist. *)

val at_edge : arrival -> rises:bool -> edge_arrival option
(** Selects the rising or falling component of an arrival. *)

val input_edge : at:float -> slew:float -> rises:bool -> arrival
(** Convenience constructor for a single-edge input arrival. *)

(** {2 Compiled graphs}

    An immutable snapshot of the DAG, built once and reused across
    passes.  Compilation resolves each distinct (cell, pin, edge)
    timing arc once, freezes every output net's total load, and groups
    gates into ASAP levels for parallel evaluation. *)

type compiled

val compile : t -> compiled
(** Snapshot the builder.  Later mutations of [t] (more gates, more
    loads) are not reflected; compile again.  O(nets + pins). *)

val compiled_nets : compiled -> int
(** Number of nets (primary inputs + gate outputs). *)

val compiled_gates : compiled -> int

val level_widths : compiled -> int array
(** Gates per ASAP level, in level order — the available parallelism
    profile of the design. *)

val analyze_compiled :
  ?cache:Oracle.cache ->
  ?domains:int ->
  compiled ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  net ->
  arrival
(** {!analyze} over a compiled graph, skipping recompilation. *)

val slack_report_compiled :
  ?cache:Oracle.cache ->
  ?domains:int ->
  compiled ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  outputs:(net * float) list ->
  slack_row list
(** {!slack_report} over a compiled graph, skipping recompilation. *)
