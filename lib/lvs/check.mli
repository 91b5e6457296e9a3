(** Layout-vs-schematic certification.

    {!run} flattens a routed layout ({!Shape.of_layout}), extracts its
    connectivity ({!Extracted.extract}) and compares the result against
    the intended netlist — one net per capacitor spanning exactly its
    placed cells plus one driver terminal, and one shared top plate —
    classifying every disagreement under the [lvs/*] rule family of
    {!Verify.Lvs_rules}:

    - [lvs/short]: one component claims two nets;
    - [lvs/open]: a net is missing its driver terminal or its anchored
      shapes (cell plates, driver) span several components;
    - [lvs/floating-cell]: a cell plate is not in its driver's component;
    - [lvs/dangling] (warning): metal anchored to no plate or terminal;
    - [lvs/top-open]: the shared top plate spans several components;
    - [lvs/netbuild-mismatch]: on a geometrically clean net, the cells the
      drawn geometry reaches differ from the {!Extract.Netbuild} RC-tree
      cell set — the Elmore/f3dB numbers would describe a different
      circuit than the one drawn.

    Diagnostics feed the ordinary {!Verify.Engine} gate ([gate],
    [assert_clean]), the [ccgen lvs] CLI and the flow's [lvs] stage. *)

type stats = {
  shapes : int;       (** shapes flattened and swept *)
  contacts : int;     (** same-layer contact pairs *)
  components : int;   (** extracted electrical components *)
}

type result = {
  diagnostics : Diag.t list;  (** sorted, possibly empty *)
  stats : stats;
}

(** [classify ex layout] is the comparison pass alone (no telemetry). *)
val classify : Extracted.t -> Ccroute.Layout.t -> Diag.t list

(** [run layout] is the full instrumented pass (spans [lvs.flatten],
    [lvs.extract], [lvs.compare]; metrics [lvs/shapes], [lvs/contacts],
    [lvs/components], [lvs/defects_total]). *)
val run : Ccroute.Layout.t -> result

(** [check layout] is [(run layout).diagnostics]. *)
val check : Ccroute.Layout.t -> Diag.t list

(** [to_json ~label r] is one configuration's entry in the [ccgen lvs
    --json] document: [{"label", "stats": {"shapes", "contacts",
    "components"}, "report": <Diag.to_json>}]. *)
val to_json : label:string -> result -> Telemetry.Json.t
