(* Discrete-event MPI runtime: interprets a MiniMPI program on [nprocs]
   simulated processes.

   Each simulated process has its own local clock and runs on an explicit
   interpreter stack of activation records (function bodies, loop bodies,
   branch arms).  A blocking operation parks the process: its stack and
   the half-done MPI statement stay behind as plain data, and the
   scheduler finishes the statement and steps the process on when the
   awaited requests or collective complete.  Processes are scheduled
   lowest-clock-first, which makes wildcard message matching
   deterministic and causally plausible.  Instrumentation tools observe
   compute intervals and MPI enter/exit events and charge their own
   overhead onto the process clocks — the same interposition structure
   as PAPI sampling plus PMPI.

   The engine is built for np = 4096+ runs: programs are compiled once
   per run into an IR whose variables, parameters and request names are
   integer slots (see [Expr.Compiled]); per-process state lives in flat
   struct-of-arrays so a 16k-rank run costs 16k floats per metric, not
   16k records; and the steady-state interpreter loop allocates nothing
   on statement execution.  Every float operation is sequenced exactly as
   the original interpreter sequenced it — simulated times are preserved
   to the last ulp, and the scheduler-heap tie order is untouched, so
   results (and the golden reports derived from them) are byte-identical
   to the reference engine.  Instrumentation hooks and call-context
   maintenance are skipped entirely when no tool is attached: a bare run
   pays nothing for the observability layer.

   Tools see each event's *site*: a dense int naming the (call context,
   statement) pair.  Statements are numbered at compile time ([sid]);
   call contexts are nodes of a tree grown as calls first execute, each
   node's callpath built once at creation.  [site = node * nsid + sid],
   so a tool resolves a site once and reuses the answer for the rest of
   the run. *)

open Scalana_mlang
module C = Expr.Compiled

exception Deadlock of string
exception Runtime_error of { loc : Loc.t; msg : string }

let runtime_error ~loc fmt =
  Fmt.kstr (fun msg -> raise (Runtime_error { loc; msg })) fmt

type config = {
  nprocs : int;
  params : (string * int) list;  (* overrides of the program defaults *)
  cost : Costmodel.t;
  net : Network.t;
  inject : Inject.t;
  faults : Faults.armed;
  tools : Instrument.t list;
  max_events : int;
  clock0 : float;  (* absolute time the ranks start at (elastic epochs) *)
}

let config ?(params = []) ?(cost = Costmodel.default) ?(net = Network.default)
    ?(inject = Inject.empty) ?(faults = Faults.none) ?(tools = [])
    ?(max_events = 500_000_000) ?(clock0 = 0.0) ~nprocs () =
  if nprocs < 1 then invalid_arg "Exec.config: nprocs must be >= 1";
  if not (Float.is_finite clock0) || clock0 < 0.0 then
    invalid_arg "Exec.config: clock0 must be finite and >= 0";
  { nprocs; params; cost; net; inject; faults; tools; max_events; clock0 }

type result = {
  elapsed : float;  (* latest rank finish time, tool overhead included *)
  rank_finish : float array;
  comp_seconds : float array;
  mpi_seconds : float array;
  wait_seconds : float array;
  comp_pmu : Pmu.t array;
  events : int;
  messages : int;
  killed_ranks : int list;  (* ranks an injected fault terminated *)
  stranded_ranks : int list;  (* ranks left blocked by a killed peer *)
}

(* --- compiled program IR ---

   Built once per run (the job scale and parameter values are per-run
   constants, so [Expr.Compiled] folds them away).  Variables and
   request names are slots into per-frame arrays; direct and indirect
   call targets are resolved to compiled functions at load time, with
   unresolved names kept as lazy error nodes so "call to undefined
   function" still surfaces only if the call executes, as before. *)

type cfunc = {
  cf_name : string;
  cf_nvars : int;
  cf_nreqs : int;
  mutable cf_body : cstmt array;  (* filled after creation: recursion *)
}

and cstmt = {
  sloc : Loc.t;
  sid : int;  (* dense statement number in [0, nsid) *)
  snode : cnode;
}

and cnode =
  | KLet of { slot : int; value : C.expr }
  | KComp of {
      flops : C.expr;
      mem : C.expr;
      ints : C.expr;
      locality : float;
      label : string option;
    }
  | KLoop of { slot : int; count : C.expr; body : cstmt array }
  | KBranch of { cond : C.expr; then_ : cstmt array; else_ : cstmt array }
  | KCall of { callee : cfunc; args : (int * C.expr) array }
      (* args: (callee var slot, caller-frame expression) *)
  | KCall_undef of string
  | KIcall of { selector : C.expr; targets : (string * cfunc option) array }
  | KMpi of { ast : Ast.mpi_call; op : cmpi }

and cmpi =
  | KSend of { dest : C.expr; tag : C.expr; bytes : C.expr }
  | KRecv of { src : cpeer; tag : ctag; bytes : C.expr }
  | KIsend of { dest : C.expr; tag : C.expr; bytes : C.expr; slot : int }
  | KIrecv of { src : cpeer; tag : ctag; bytes : C.expr; slot : int }
  | KWait of { slot : int; name : string }
  | KWaitall of { slots : (int * string) array }
  | KSendrecv of {
      dest : C.expr;
      stag : C.expr;
      sbytes : C.expr;
      src : cpeer;
      rtag : ctag;
      rbytes : C.expr;
    }
  | KColl of { bytes : C.expr }

and cpeer = KPAny | KPeer of C.expr
and ctag = KTAny | KTag of C.expr

(* Per-function-activation frame: variable slots (inside the compiled
   env) and request slots, [Comm.nil_request] while unposted. *)
type frame = { fenv : C.env; freqs : Comm.request array }

(* --- program compilation --- *)

type fslots = {
  vtbl : (string, int) Hashtbl.t;
  mutable vnext : int;
  rtbl : (string, int) Hashtbl.t;
  mutable rnext : int;
}

let vslot fs name =
  match Hashtbl.find_opt fs.vtbl name with
  | Some i -> i
  | None ->
      let i = fs.vnext in
      fs.vnext <- i + 1;
      Hashtbl.replace fs.vtbl name i;
      i

let rslot fs name =
  match Hashtbl.find_opt fs.rtbl name with
  | Some i -> i
  | None ->
      let i = fs.rnext in
      fs.rnext <- i + 1;
      Hashtbl.replace fs.rtbl name i;
      i

let merge_params (program : Ast.program) overrides =
  List.map
    (fun (name, default) ->
      match List.assoc_opt name overrides with
      | Some v -> (name, v)
      | None -> (name, default))
    program.params
  @ List.filter
      (fun (name, _) -> not (List.mem_assoc name program.params))
      overrides

(* Compile [program] at one (nprocs, params) point; returns the main
   function and each statement's location by [sid] (so there are
   [Array.length] of them).  Duplicate function names keep
   first-definition-wins resolution. *)
let compile_program ~nprocs ~params (program : Ast.program) =
  let funcs =
    List.fold_left
      (fun acc (f : Ast.func) ->
        if List.exists (fun (g : Ast.func) -> g.fname = f.fname) acc then acc
        else f :: acc)
      [] program.funcs
    |> List.rev
  in
  let slots : (string, fslots) Hashtbl.t = Hashtbl.create 16 in
  (* pass 1: per-function slots for params, loop/let vars, requests *)
  List.iter
    (fun (f : Ast.func) ->
      let fs =
        {
          vtbl = Hashtbl.create 8;
          vnext = 0;
          rtbl = Hashtbl.create 4;
          rnext = 0;
        }
      in
      Hashtbl.replace slots f.fname fs;
      List.iter (fun p -> ignore (vslot fs p)) f.fparams;
      Ast.iter_stmts
        (fun st ->
          match st.Ast.node with
          | Ast.Let { var; _ } -> ignore (vslot fs var)
          | Ast.Loop l -> ignore (vslot fs l.var)
          | Ast.Mpi
              ( Ast.Isend { req; _ }
              | Ast.Irecv { req; _ }
              | Ast.Wait { req } ) ->
              ignore (rslot fs req)
          | Ast.Mpi (Ast.Waitall { reqs }) ->
              List.iter (fun r -> ignore (rslot fs r)) reqs
          | _ -> ())
        f.fbody)
    funcs;
  (* pass 2: call-site argument names become slots of the callee (the
     interpreter binds whatever names a call site passes) *)
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (fun st ->
          match st.Ast.node with
          | Ast.Call { callee; args } -> (
              match Hashtbl.find_opt slots callee with
              | Some cfs -> List.iter (fun (n, _) -> ignore (vslot cfs n)) args
              | None -> ())
          | _ -> ())
        f.fbody)
    funcs;
  (* pass 3: create the (cyclic) function records, then compile bodies *)
  let cmap : (string, cfunc) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      let fs = Hashtbl.find slots f.fname in
      Hashtbl.replace cmap f.fname
        {
          cf_name = f.fname;
          cf_nvars = fs.vnext;
          cf_nreqs = fs.rnext;
          cf_body = [||];
        })
    funcs;
  let param name = List.assoc_opt name params in
  let nsid = ref 0 in
  let locs = ref [] in
  let compile_func (f : Ast.func) =
    let fs = Hashtbl.find slots f.fname in
    let var_slot name =
      match Hashtbl.find_opt fs.vtbl name with Some i -> i | None -> -1
    in
    let ce e = C.compile ~nprocs ~param ~var_slot e in
    let cpeer = function
      | Ast.Any_source -> KPAny
      | Ast.Peer e -> KPeer (ce e)
    in
    let ctag = function Ast.Any_tag -> KTAny | Ast.Tag e -> KTag (ce e) in
    let cmpi (c : Ast.mpi_call) =
      match c with
      | Ast.Send { dest; tag; bytes } ->
          KSend { dest = ce dest; tag = ce tag; bytes = ce bytes }
      | Ast.Recv { src; tag; bytes } ->
          KRecv { src = cpeer src; tag = ctag tag; bytes = ce bytes }
      | Ast.Isend { dest; tag; bytes; req } ->
          KIsend
            { dest = ce dest; tag = ce tag; bytes = ce bytes;
              slot = rslot fs req }
      | Ast.Irecv { src; tag; bytes; req } ->
          KIrecv
            { src = cpeer src; tag = ctag tag; bytes = ce bytes;
              slot = rslot fs req }
      | Ast.Wait { req } -> KWait { slot = rslot fs req; name = req }
      | Ast.Waitall { reqs } ->
          KWaitall
            { slots =
                Array.of_list (List.map (fun r -> (rslot fs r, r)) reqs) }
      | Ast.Sendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
          KSendrecv
            { dest = ce dest; stag = ce stag; sbytes = ce sbytes;
              src = cpeer src; rtag = ctag rtag; rbytes = ce rbytes }
      | Ast.Barrier -> KColl { bytes = ce (Expr.Int 0) }
      | Ast.Bcast { bytes; _ }
      | Ast.Reduce { bytes; _ }
      | Ast.Allreduce { bytes }
      | Ast.Alltoall { bytes }
      | Ast.Allgather { bytes } ->
          KColl { bytes = ce bytes }
    in
    let rec cstmts stmts = Array.of_list (List.map cstmt stmts)
    and cstmt (st : Ast.stmt) =
      let sid = !nsid in
      incr nsid;
      locs := st.loc :: !locs;
      let node =
        match st.node with
        | Ast.Let { var; value } ->
            KLet { slot = Hashtbl.find fs.vtbl var; value = ce value }
        | Ast.Comp w ->
            KComp
              { flops = ce w.flops; mem = ce w.mem; ints = ce w.ints;
                locality = w.locality; label = w.label }
        | Ast.Loop l ->
            KLoop
              { slot = Hashtbl.find fs.vtbl l.var; count = ce l.count;
                body = cstmts l.body }
        | Ast.Branch b ->
            KBranch
              { cond = ce b.cond; then_ = cstmts b.then_;
                else_ = cstmts b.else_ }
        | Ast.Call { callee; args } -> (
            match Hashtbl.find_opt cmap callee with
            | None -> KCall_undef callee
            | Some cf ->
                let cfs = Hashtbl.find slots callee in
                KCall
                  { callee = cf;
                    args =
                      Array.of_list
                        (List.map
                           (fun (n, e) -> (Hashtbl.find cfs.vtbl n, ce e))
                           args) })
        | Ast.Icall { selector; targets } ->
            KIcall
              { selector = ce selector;
                targets =
                  Array.of_list
                    (List.map (fun n -> (n, Hashtbl.find_opt cmap n)) targets) }
        | Ast.Mpi c -> KMpi { ast = c; op = cmpi c }
      in
      { sloc = st.loc; sid; snode = node }
    in
    (Hashtbl.find cmap f.fname).cf_body <- cstmts f.fbody
  in
  List.iter compile_func funcs;
  match Hashtbl.find_opt cmap program.main with
  | Some f -> (f, Array.of_list (List.rev !locs))
  | None -> raise (Ast.Unknown_function program.main)

(* --- scheduler state --- *)

(* What an MPI statement awaits (an isend: the request it posted);
   [Wake_two] is sendrecv's (send, receive) pair, without an array
   allocation.  Requests are [Comm] handles. *)
type wake =
  | Wake_none
  | Wake_one of Comm.request
  | Wake_two of Comm.request * Comm.request
  | Wake_many of Comm.request array
  | Wake_coll of Comm.coll

(* status codes *)
let st_not_started = 0
let st_ready = 1
let st_running = 2
let st_blocked = 3
let st_finished = 4

(* One activation on a rank's interpreter stack: a function body, loop
   body or branch arm, executing [body] from [pc] in [frame].  A loop
   body runs again while [iter + 1 < bound], with variable [slot] set to
   each iteration; a function body restores its caller's context node
   [ret_node] when it returns ([-1]: not a call, or no tools attached)
   and, as the activation that [owns] its frame, releases the frame's
   requests.  Records are allocated on first use and reused by later
   pushes. *)
type act = {
  mutable body : cstmt array;
  mutable pc : int;
  mutable frame : frame;
  mutable slot : int;
  mutable iter : int;
  mutable bound : int;
  mutable ret_node : int;
  mutable owns : bool;
}

(* Per-process state in struct-of-arrays layout, indexed by rank. *)
type sched = {
  cfg : config;
  cmain : cfunc;
  has_tools : bool;
  inject_on : bool;
  comm : Comm.t;
  nprocs : int;
  net : Network.t;
  clock : float array;
  comp_sec : float array;
  mpi_sec : float array;
  wait_sec : float array;
  pmu_tot_ins : float array;
  pmu_tot_lst : float array;
  pmu_tot_cyc : float array;
  pmu_miss : float array;
  pmu_fp : float array;
  coll_seqs : int array;
  status : int array;
  acts : act array array;  (* interpreter stack per rank... *)
  depth : int array;  (* ...and its height; 0 once the rank returned *)
  (* the MPI statement in flight per rank, for its second half: *)
  enter_time : float array;
  await_since : float array;  (* clock when it began to await *)
  wakes : wake array;  (* what it awaits *)
  resume_at : float array;
  (* call contexts, maintained only when has_tools; node 0 is [main] *)
  nsid : int;  (* statements in the compiled program, >= 1 *)
  sid_loc : Loc.t array;  (* statement locations by sid *)
  cnode : int array;  (* current context node per rank *)
  mutable node_paths : Loc.t list array;  (* node -> callpath *)
  mutable nnodes : int;
  mutable children : int array;  (* site of a call -> child, -1 = none *)
  kill_at : float array;  (* infinity = no kill fault armed *)
  comp_scale : float array;
  scratch : float array;  (* 5 slots for Costmodel.comp_cost_into *)
  ready : Heap.t;
  mutable events : int;
  mutable blocks : int;  (* times a rank parked *)
  mutable killed : int list;  (* ranks terminated by an injected fault *)
}

(* Internal: unwinds a rank that an armed fault has terminated. *)
exception Rank_killed

let make_ready s rank resume =
  s.status.(rank) <- st_ready;
  s.resume_at.(rank) <- resume;
  Heap.push s.ready resume rank

(* Whether everything [w] awaits has completed. *)
let satisfied c = function
  | Wake_none -> true
  | Wake_one r -> Comm.completed c r
  | Wake_two (r1, r2) -> Comm.completed c r1 && Comm.completed c r2
  | Wake_many rs ->
      let rec all i = i < 0 || (Comm.completed c rs.(i) && all (i - 1)) in
      all (Array.length rs - 1)
  | Wake_coll coll -> coll.Comm.finished

(* When a rank that began awaiting a satisfied [w] at [since] resumes:
   the latest completion, but no earlier than [since]; a collective
   releases everyone at its finish time. *)
let resume_time c since = function
  | Wake_none -> since
  | Wake_one r -> Float.max since (Comm.completion c r)
  | Wake_two (r1, r2) ->
      Float.max (Float.max since (Comm.completion c r1)) (Comm.completion c r2)
  | Wake_many rs ->
      let acc = ref since in
      for i = 0 to Array.length rs - 1 do
        acc := Float.max !acc (Comm.completion c rs.(i))
      done;
      !acc
  | Wake_coll coll -> coll.Comm.finish_time

(* Called from Comm when a request [rank] parked on completes: wake it
   once all of its awaited requests are complete. *)
let on_wake s rank =
  let w = s.wakes.(rank) in
  if s.status.(rank) = st_blocked && satisfied s.comm w then
    make_ready s rank (resume_time s.comm s.await_since.(rank) w)

let wake_collective s (c : Comm.coll) =
  List.iter
    (fun rank ->
      if s.status.(rank) = st_blocked then
        match s.wakes.(rank) with
        | Wake_coll c' when c'.Comm.coll_seq = c.Comm.coll_seq ->
            make_ready s rank c.Comm.finish_time
        | _ -> ())
    c.Comm.waiters;
  c.Comm.waiters <- []

(* --- interpretation --- *)

let ceval (env : C.env) ~loc e =
  try C.eval env e with Expr.Eval_error msg -> runtime_error ~loc "%s" msg

let eval_peer (env : C.env) ~loc = function
  | KPAny -> Comm.any_src
  | KPeer e -> ceval env ~loc e

let eval_tag (env : C.env) ~loc = function
  | KTAny -> Comm.any_tag
  | KTag e -> ceval env ~loc e

(* [a] extended to at least [len] slots, the new ones set to [fill]. *)
let grow a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The context node that [call], executed in context [parent], enters;
   created with its callpath the first time. *)
let child_node s parent (call : cstmt) =
  let site = (parent * s.nsid) + call.sid in
  if site >= Array.length s.children then
    s.children <- grow s.children (site + 1) (-1);
  if s.children.(site) < 0 then begin
    let c = s.nnodes in
    if c = Array.length s.node_paths then
      s.node_paths <- grow s.node_paths (c + 1) [];
    s.node_paths.(c) <- s.node_paths.(parent) @ [ call.sloc ];
    s.nnodes <- c + 1;
    s.children.(site) <- c
  end;
  s.children.(site)

let ctx_of s rank (st : cstmt) =
  let node = s.cnode.(rank) in
  {
    Instrument.rank;
    time = s.clock.(rank);
    loc = st.sloc;
    callpath = s.node_paths.(node);
    site = (node * s.nsid) + st.sid;
  }

let tool_sum cfg f = List.fold_left (fun acc tool -> acc +. f tool) 0.0 cfg.tools

let dep_of_req s r =
  let c = s.comm in
  let m = Comm.matched c r in
  if m <> Comm.nil_message && Comm.is_recv c r then
    let e = Comm.envelope c m in
    [
      {
        Instrument.peer_rank = e.src;
        peer_loc = s.sid_loc.(e.site mod s.nsid);
        peer_callpath = s.node_paths.(e.site / s.nsid);
        peer_site = e.site;
        dep_tag = e.tag;
        dep_bytes = e.bytes;
        send_time = e.send_time;
        arrival_time = Comm.completion c r;
      };
    ]
  else []

let get_req (frame : frame) ~loc slot name =
  let r = frame.freqs.(slot) in
  if r = Comm.nil_request then
    runtime_error ~loc "wait on unposted request %S" name
  else r

(* Hand a request to frame slot [slot], releasing the one it held. *)
let set_req s (frame : frame) slot r =
  let old = frame.freqs.(slot) in
  frame.freqs.(slot) <- r;
  if old <> Comm.nil_request then Comm.release s.comm old

(* Release every request a returning call's frame still holds. *)
let release_frame s (frame : frame) =
  Array.iter
    (fun r -> if r <> Comm.nil_request then Comm.release s.comm r)
    frame.freqs

let no_vars : int array = [||]
let no_reqs : Comm.request array = [||]

let new_frame rank (f : cfunc) =
  {
    fenv =
      {
        C.c_rank = rank;
        c_vars = (if f.cf_nvars = 0 then no_vars else Array.make f.cf_nvars 0);
        c_bound =
          (if f.cf_nvars = 0 then Bytes.empty else Bytes.make f.cf_nvars '\000');
      };
    freqs =
      (if f.cf_nreqs = 0 then no_reqs
       else Array.make f.cf_nreqs Comm.nil_request);
  }

(* Placeholder for stack slots not yet allocated. *)
let no_act =
  let f = { cf_name = ""; cf_nvars = 0; cf_nreqs = 0; cf_body = [||] } in
  let frame = new_frame 0 f in
  {
    body = [||];
    pc = 0;
    frame;
    slot = 0;
    iter = 0;
    bound = 0;
    ret_node = -1;
    owns = false;
  }

(* Push an activation running [body] in [frame] onto [rank]'s stack. *)
let push s rank body frame ~slot ~bound ~ret_node ~owns =
  let d = s.depth.(rank) in
  let acts = s.acts.(rank) in
  let acts =
    if d < Array.length acts then acts
    else begin
      let grown = grow acts (d + 1) no_act in
      s.acts.(rank) <- grown;
      grown
    end
  in
  let a = Array.unsafe_get acts d in
  if a == no_act then
    acts.(d) <- { body; pc = 0; frame; slot; iter = 0; bound; ret_node; owns }
  else begin
    a.body <- body;
    a.pc <- 0;
    a.frame <- frame;
    a.slot <- slot;
    a.iter <- 0;
    a.bound <- bound;
    a.ret_node <- ret_node;
    a.owns <- owns
  end;
  s.depth.(rank) <- d + 1

(* Enter [f] from the statement [call]: bind the arguments, evaluated in
   the caller's frame, and move to the call's context node when tools
   are attached. *)
let call_function s rank (call : cstmt) (f : cfunc)
    (args : (int * C.expr) array) (caller : frame) =
  let callee_frame = new_frame rank f in
  let nargs = Array.length args in
  for i = 0 to nargs - 1 do
    let slot, e = Array.unsafe_get args i in
    let v = ceval caller.fenv ~loc:call.sloc e in
    callee_frame.fenv.C.c_vars.(slot) <- v;
    Bytes.unsafe_set callee_frame.fenv.C.c_bound slot '\001'
  done;
  let ret_node =
    if s.has_tools then begin
      let parent = s.cnode.(rank) in
      s.cnode.(rank) <- child_node s parent call;
      parent
    end
    else -1
  in
  push s rank f.cf_body callee_frame ~slot:0 ~bound:0 ~ret_node ~owns:true

(* Accumulate one computation interval into the per-rank SoA state.
   Field-by-field addition in [Pmu.t] order — identical float sums to
   the reference engine's [Pmu.add]. *)
let accum_comp s rank seconds =
  s.clock.(rank) <- s.clock.(rank) +. seconds;
  s.comp_sec.(rank) <- s.comp_sec.(rank) +. seconds;
  s.pmu_tot_ins.(rank) <- s.pmu_tot_ins.(rank) +. s.scratch.(0);
  s.pmu_tot_lst.(rank) <- s.pmu_tot_lst.(rank) +. s.scratch.(1);
  s.pmu_tot_cyc.(rank) <- s.pmu_tot_cyc.(rank) +. s.scratch.(2);
  s.pmu_miss.(rank) <- s.pmu_miss.(rank) +. s.scratch.(3);
  s.pmu_fp.(rank) <- s.pmu_fp.(rank) +. s.scratch.(4)

(* --- MPI statements ---

   An MPI statement runs in two halves.  [exec_mpi] issues it: evaluates
   its arguments, posts to [Comm] and records what it awaits.  [finish_mpi]
   runs once the clock stands at the resume time: wait and MPI seconds,
   then the tool hooks.  When the awaited requests or collective are
   already complete the two run back to back; otherwise the rank parks
   and the scheduler runs [finish_mpi] when it wakes.  The clock and wait
   arithmetic is the same with or without tools; what only a hook
   consumes (context records, dependence edges, posted sends, collective
   info) is built behind [s.has_tools], so bare runs allocate none of
   it.  [cnode] stays at the root on bare runs, so posted messages carry
   a root-context site there.  A blocking send or receive owns the
   requests it posted and releases them once finished. *)

let finish_mpi s rank (st : cstmt) (w : wake) =
  match st.snode with
  | KMpi { ast; op } ->
      let tools = s.has_tools in
      let enter_time = s.enter_time.(rank) in
      let exit_time = s.clock.(rank) in
      let wait =
        match (op, w) with
        | (KIsend _ | KIrecv _), _ -> 0.0
        | _, Wake_coll c ->
            Float.max 0.0 (c.Comm.start_time -. s.await_since.(rank))
        | _ -> exit_time -. s.await_since.(rank)
      in
      s.mpi_sec.(rank) <- s.mpi_sec.(rank) +. (exit_time -. enter_time);
      s.wait_sec.(rank) <- s.wait_sec.(rank) +. wait;
      if tools then begin
        let node = s.cnode.(rank) in
        let site = (node * s.nsid) + st.sid in
        (* a send request's message is the one it posted; a sendrecv's
           first request is its send, which carries no dependence *)
        let sends =
          match (op, w) with
          | (KSend _ | KIsend _), Wake_one r | KSendrecv _, Wake_two (r, _) ->
              let e = Comm.envelope s.comm (Comm.matched s.comm r) in
              [ (e.dst, e.tag, e.bytes) ]
          | _ -> []
        in
        let deps, collective =
          match w with
          | Wake_none -> ([], None)
          | Wake_one r | Wake_two (_, r) -> (dep_of_req s r, None)
          | Wake_many rs ->
              (List.concat_map (dep_of_req s) (Array.to_list rs), None)
          | Wake_coll c ->
              ( [],
                Some
                  {
                    Instrument.coll_seq = c.Comm.coll_seq;
                    arrive_time = s.await_since.(rank);
                    start_time = c.Comm.start_time;
                    last_arrival_rank = c.Comm.last_arrival_rank;
                  } )
        in
        let callpath = s.node_paths.(node) in
        let ctx_span =
          { Instrument.rank; time = enter_time; loc = st.sloc; callpath; site }
        in
        let span_overhead =
          tool_sum s.cfg (fun tool ->
              tool.Instrument.on_interval ctx_span ~stop:exit_time
                (Instrument.Mpi_span { call = ast; wait_seconds = wait }))
        in
        let exit_info =
          {
            Instrument.call = ast;
            enter_time;
            exit_time;
            wait_seconds = wait;
            deps;
            sends;
            collective;
          }
        in
        let ctx_exit = { ctx_span with time = exit_time } in
        let overhead_out =
          tool_sum s.cfg (fun tool ->
              tool.Instrument.on_mpi_exit ctx_exit exit_info)
        in
        s.clock.(rank) <- s.clock.(rank) +. span_overhead +. overhead_out
      end;
      (match (op, w) with
      | (KSend _ | KRecv _), Wake_one r -> Comm.release s.comm r
      | KSendrecv _, Wake_two (r1, r2) ->
          Comm.release s.comm r1;
          Comm.release s.comm r2
      | _ -> ())
  | _ -> assert false

(* [satisfied], registering [rank] as the waiter of every request of
   [w] still pending (none when [w] is satisfied). *)
let wait_on s rank = function
  | Wake_one r -> Comm.wait_on s.comm r rank
  | Wake_two (r1, r2) ->
      let done1 = Comm.wait_on s.comm r1 rank in
      Comm.wait_on s.comm r2 rank && done1
  | Wake_many rs ->
      Array.fold_left (fun ok r -> Comm.wait_on s.comm r rank && ok) true rs
  | (Wake_none | Wake_coll _) as w -> satisfied s.comm w

(* Park [rank] until [w] is satisfied; [wait_on] has already registered
   it with the pending requests. *)
let park s rank (w : wake) =
  s.status.(rank) <- st_blocked;
  s.wakes.(rank) <- w;
  s.blocks <- s.blocks + 1;
  match w with
  | Wake_coll coll -> coll.Comm.waiters <- rank :: coll.Comm.waiters
  | Wake_none -> assert false
  | Wake_one _ | Wake_two _ | Wake_many _ -> ()

(* Await [w] for the MPI statement [st]: finish it now when [w] is
   already satisfied, else park.  Returns whether the rank runs on. *)
let await s rank (st : cstmt) (w : wake) =
  let t0 = s.clock.(rank) in
  s.await_since.(rank) <- t0;
  let ready = wait_on s rank w in
  if ready then begin
    s.clock.(rank) <- Float.max t0 (resume_time s.comm t0 w);
    finish_mpi s rank st w
  end
  else park s rank w;
  ready

(* Post a send or receive of [rank] at its clock, after the range
   check on the peer. *)
let post_send s rank ~loc ~site ~dst ~tag ~bytes =
  if dst < 0 || dst >= s.nprocs then
    Fmt.invalid_arg "send to rank %d outside 0..%d (%s)" dst (s.nprocs - 1)
      (Loc.to_string loc);
  Comm.send s.comm ~src:rank ~dst ~tag ~bytes ~time:s.clock.(rank) ~site

let post_recv s rank ~loc ~site ~src ~tag =
  if src <> Comm.any_src && (src < 0 || src >= s.nprocs) then
    Fmt.invalid_arg "recv from rank %d outside 0..%d (%s)" src (s.nprocs - 1)
      (Loc.to_string loc);
  Comm.post_recv s.comm ~rank ~src ~tag ~time:s.clock.(rank) ~site

(* Issue the MPI statement [st]; false when the rank parked.  A
   receive's byte count is evaluated for its errors only: messages are
   never truncated. *)
let exec_mpi s rank frame (st : cstmt) (ast : Ast.mpi_call) (op : cmpi) =
  let loc = st.sloc in
  s.enter_time.(rank) <- s.clock.(rank);
  let site = (s.cnode.(rank) * s.nsid) + st.sid in
  let env = frame.fenv in
  match op with
  | KSend { dest; tag; bytes } ->
      let dst = ceval env ~loc dest in
      let tag = ceval env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let sreq = post_send s rank ~loc ~site ~dst ~tag ~bytes in
      s.clock.(rank) <- s.clock.(rank) +. s.net.Network.send_overhead;
      await s rank st (Wake_one sreq)
  | KRecv { src; tag; bytes } ->
      let src = eval_peer env ~loc src in
      let tag = eval_tag env ~loc tag in
      ignore (ceval env ~loc bytes);
      let req = post_recv s rank ~loc ~site ~src ~tag in
      s.clock.(rank) <- s.clock.(rank) +. s.net.Network.recv_overhead;
      await s rank st (Wake_one req)
  | KIsend { dest; tag; bytes; slot } ->
      let dst = ceval env ~loc dest in
      let tag = ceval env ~loc tag in
      let bytes = ceval env ~loc bytes in
      let sreq = post_send s rank ~loc ~site ~dst ~tag ~bytes in
      s.clock.(rank) <- s.clock.(rank) +. s.net.Network.send_overhead;
      set_req s frame slot sreq;
      finish_mpi s rank st (Wake_one sreq);
      true
  | KIrecv { src; tag; bytes; slot } ->
      let src = eval_peer env ~loc src in
      let tag = eval_tag env ~loc tag in
      ignore (ceval env ~loc bytes);
      let rreq = post_recv s rank ~loc ~site ~src ~tag in
      s.clock.(rank) <- s.clock.(rank) +. s.net.Network.recv_overhead;
      set_req s frame slot rreq;
      finish_mpi s rank st Wake_none;
      true
  | KWait { slot; name } ->
      await s rank st (Wake_one (get_req frame ~loc slot name))
  | KWaitall { slots } ->
      let rs =
        Array.map (fun (slot, name) -> get_req frame ~loc slot name) slots
      in
      await s rank st (Wake_many rs)
  | KSendrecv { dest; stag; sbytes; src; rtag; rbytes } ->
      let dst = ceval env ~loc dest in
      let stag = ceval env ~loc stag in
      let sbytes = ceval env ~loc sbytes in
      let src = eval_peer env ~loc src in
      let rtag = eval_tag env ~loc rtag in
      ignore (ceval env ~loc rbytes);
      let sreq = post_send s rank ~loc ~site ~dst ~tag:stag ~bytes:sbytes in
      let rreq = post_recv s rank ~loc ~site ~src ~tag:rtag in
      s.clock.(rank) <-
        s.clock.(rank) +. s.net.Network.send_overhead
        +. s.net.Network.recv_overhead;
      await s rank st (Wake_two (sreq, rreq))
  | KColl { bytes } ->
      let bytes = ceval env ~loc bytes in
      s.coll_seqs.(rank) <- s.coll_seqs.(rank) + 1;
      let c =
        Comm.coll_arrive s.comm ~seq:s.coll_seqs.(rank) ~rank
          ~time:s.clock.(rank) ~kind:ast ~bytes
      in
      if c.Comm.finished then wake_collective s c;
      await s rank st (Wake_coll c)

(* Execute one statement of [rank]; false when it parked.  Blocks and
   calls push an activation rather than recursing, so a parked rank's
   whole control state is its stack. *)
let exec_stmt s rank frame (st : cstmt) =
  let loc = st.sloc in
  s.events <- s.events + 1;
  if s.events > s.cfg.max_events then
    runtime_error ~loc "event budget exceeded (%d)" s.cfg.max_events;
  if s.clock.(rank) >= s.kill_at.(rank) then raise Rank_killed;
  match st.snode with
  | KLet { slot; value } ->
      let v = ceval frame.fenv ~loc value in
      frame.fenv.C.c_vars.(slot) <- v;
      Bytes.unsafe_set frame.fenv.C.c_bound slot '\001';
      true
  | KComp { flops; mem; ints; locality; label } ->
      (* workload counts evaluate inside the cost model in the reference
         engine, so an Eval_error escapes unwrapped here too *)
      let fl = C.eval frame.fenv flops in
      let me = C.eval frame.fenv mem in
      let it = C.eval frame.fenv ints in
      let seconds =
        Costmodel.comp_cost_into s.cfg.cost ~rank ~flops:fl ~mem:me ~ints:it
          ~locality ~counters:s.scratch
      in
      let seconds = seconds *. s.comp_scale.(rank) in
      let seconds =
        if s.inject_on then
          seconds +. Inject.extra s.cfg.inject ~rank ~loc
        else seconds
      in
      if s.has_tools then begin
        let ctx = ctx_of s rank st in
        accum_comp s rank seconds;
        let pmu =
          {
            Pmu.tot_ins = s.scratch.(0);
            tot_lst_ins = s.scratch.(1);
            tot_cyc = s.scratch.(2);
            cache_miss = s.scratch.(3);
            fp_ins = s.scratch.(4);
          }
        in
        let overhead =
          tool_sum s.cfg (fun tool ->
              tool.Instrument.on_interval ctx ~stop:s.clock.(rank)
                (Instrument.Compute { pmu; label }))
        in
        s.clock.(rank) <- s.clock.(rank) +. overhead
      end
      else accum_comp s rank seconds;
      true
  | KLoop { slot; count; body } ->
      let n = ceval frame.fenv ~loc count in
      if n > 0 then begin
        Bytes.unsafe_set frame.fenv.C.c_bound slot '\001';
        Array.unsafe_set frame.fenv.C.c_vars slot 0;
        push s rank body frame ~slot ~bound:n ~ret_node:(-1) ~owns:false
      end;
      true
  | KBranch { cond; then_; else_ } ->
      let arm = if ceval frame.fenv ~loc cond <> 0 then then_ else else_ in
      if Array.length arm > 0 then
        push s rank arm frame ~slot:0 ~bound:0 ~ret_node:(-1) ~owns:false;
      true
  | KCall { callee; args } ->
      call_function s rank st callee args frame;
      true
  | KCall_undef name ->
      runtime_error ~loc "call to undefined function %S" name
  | KIcall { selector; targets } ->
      let n = Array.length targets in
      if n = 0 then runtime_error ~loc "indirect call with no targets";
      let sel = ceval frame.fenv ~loc selector in
      let idx = ((sel mod n) + n) mod n in
      let target, tf = targets.(idx) in
      if s.has_tools then begin
        let ctx = ctx_of s rank st in
        let overhead =
          tool_sum s.cfg (fun tool -> tool.Instrument.on_icall ctx ~target)
        in
        s.clock.(rank) <- s.clock.(rank) +. overhead
      end;
      (match tf with
      | None ->
          runtime_error ~loc "indirect call to undefined function %S" target
      | Some f -> call_function s rank st f [||] frame);
      true
  | KMpi { ast; op } -> exec_mpi s rank frame st ast op

(* --- the scheduler loop --- *)

(* Run [rank] until it parks or returns from [main].  A finished body
   pops its activation (restoring the caller's context node and
   releasing a returning call's requests), unless it is a loop body with
   iterations left. *)
let rec step s rank =
  let d = s.depth.(rank) in
  if d = 0 then s.status.(rank) <- st_finished
  else begin
    let a = Array.unsafe_get s.acts.(rank) (d - 1) in
    let pc = a.pc in
    if pc < Array.length a.body then begin
      a.pc <- pc + 1;
      if exec_stmt s rank a.frame (Array.unsafe_get a.body pc) then
        step s rank
    end
    else begin
      let it = a.iter + 1 in
      if it < a.bound then begin
        a.iter <- it;
        Array.unsafe_set a.frame.fenv.C.c_vars a.slot it;
        a.pc <- 0
      end
      else begin
        if a.ret_node >= 0 then s.cnode.(rank) <- a.ret_node;
        if a.owns then release_frame s a.frame;
        s.depth.(rank) <- d - 1
      end;
      step s rank
    end
  end

(* Give the processor to [rank]: start it, or finish the MPI statement
   it parked in (the one just behind its top activation's [pc]) at its
   resume time, then run it on.  A killed rank stops cleanly: whatever
   it measured so far stays, and peers waiting on it are stranded and
   handled at end of run. *)
let dispatch s rank ~resumed =
  s.status.(rank) <- st_running;
  try
    if resumed then begin
      let a = s.acts.(rank).(s.depth.(rank) - 1) in
      s.clock.(rank) <- Float.max s.clock.(rank) s.resume_at.(rank);
      finish_mpi s rank a.body.(a.pc - 1) s.wakes.(rank)
    end
    else
      push s rank s.cmain.cf_body (new_frame rank s.cmain) ~slot:0 ~bound:0
        ~ret_node:(-1) ~owns:true;
    step s rank
  with Rank_killed ->
    s.status.(rank) <- st_finished;
    s.killed <- rank :: s.killed

let rec drive s =
  let rank = Heap.pop_val s.ready in
  if rank >= 0 then begin
    let st = s.status.(rank) in
    if st = st_not_started || st = st_ready then
      dispatch s rank ~resumed:(st = st_ready);
    drive s
  end

(* --- top-level run --- *)

let run_body ~cfg (program : Ast.program) =
  let merged_params = merge_params program cfg.params in
  let cmain, sid_loc =
    compile_program ~nprocs:cfg.nprocs ~params:merged_params program
  in
  let n = cfg.nprocs in
  let comm = Comm.create ~net:cfg.net ~nprocs:n in
  let s =
    {
      cfg;
      cmain;
      has_tools = cfg.tools <> [];
      inject_on = not (Inject.is_empty cfg.inject);
      comm;
      nprocs = n;
      net = cfg.net;
      clock = Array.make n cfg.clock0;
      comp_sec = Array.make n 0.0;
      mpi_sec = Array.make n 0.0;
      wait_sec = Array.make n 0.0;
      pmu_tot_ins = Array.make n 0.0;
      pmu_tot_lst = Array.make n 0.0;
      pmu_tot_cyc = Array.make n 0.0;
      pmu_miss = Array.make n 0.0;
      pmu_fp = Array.make n 0.0;
      coll_seqs = Array.make n 0;
      status = Array.make n st_not_started;
      acts = Array.make n [||];
      depth = Array.make n 0;
      enter_time = Array.make n 0.0;
      await_since = Array.make n cfg.clock0;
      wakes = Array.make n Wake_none;
      resume_at = Array.make n 0.0;
      nsid = max 1 (Array.length sid_loc);
      sid_loc;
      cnode = Array.make n 0;
      node_paths = [| [] |];
      nnodes = 1;
      children = [||];
      kill_at =
        Array.init n (fun rank ->
            match Faults.kill_time cfg.faults ~rank with
            | Some t -> t
            | None -> infinity);
      comp_scale = Array.init n (fun rank -> Faults.comp_scale cfg.faults ~rank);
      scratch = Array.make 5 0.0;
      ready = Heap.create ~capacity:(max 16 n) ();
      events = 0;
      blocks = 0;
      killed = [];
    }
  in
  Comm.set_on_wake comm (on_wake s);
  for rank = 0 to n - 1 do
    Heap.push s.ready cfg.clock0 rank
  done;
  drive s;
  let stuck = ref [] in
  for rank = n - 1 downto 0 do
    if s.status.(rank) <> st_finished then stuck := rank :: !stuck
  done;
  let stuck = List.sort_uniq compare !stuck in
  let killed_ranks = List.sort_uniq compare s.killed in
  (* a genuine deadlock is still fatal; ranks blocked on a killed peer are
     the expected degraded outcome and are reported, not raised *)
  if stuck <> [] && killed_ranks = [] then
    raise
      (Deadlock
         (Printf.sprintf "ranks {%s} blocked at end of run\n%s"
            (String.concat "," (List.map string_of_int stuck))
            (Comm.pending_summary comm ~loc_of_site:(fun site ->
                 sid_loc.(site mod s.nsid)))));
  let elapsed = Array.fold_left Float.max 0.0 s.clock in
  List.iter
    (fun tool -> tool.Instrument.on_run_end ~nprocs:cfg.nprocs ~elapsed)
    cfg.tools;
  let r =
    {
      elapsed;
      rank_finish = s.clock;
      comp_seconds = s.comp_sec;
      mpi_seconds = s.mpi_sec;
      wait_seconds = s.wait_sec;
      comp_pmu =
        Array.init n (fun rank ->
            {
              Pmu.tot_ins = s.pmu_tot_ins.(rank);
              tot_lst_ins = s.pmu_tot_lst.(rank);
              tot_cyc = s.pmu_tot_cyc.(rank);
              cache_miss = s.pmu_miss.(rank);
              fp_ins = s.pmu_fp.(rank);
            });
      events = s.events;
      messages = Comm.messages_sent comm;
      killed_ranks;
      stranded_ranks = stuck;
    }
  in
  (r, s)

(* The observable boundary of one simulated run: the span's duration is
   the wall-clock cost of simulating, while [sim_elapsed] is the
   simulated time the program itself took — the two axes Table IV's
   overhead argument compares. *)
let run ?(cfg = config ~nprocs:4 ()) (program : Ast.program) =
  let module Obs = Scalana_obs.Obs in
  if not (Obs.enabled ()) then fst (run_body ~cfg program)
  else begin
    let sp =
      Obs.start ~args:[ ("nprocs", string_of_int cfg.nprocs) ] "exec.run"
    in
    let t0 = Obs.now () in
    match run_body ~cfg program with
    | r, s ->
        Obs.Metrics.observe "exec.wall_seconds" (Obs.now () -. t0);
        Obs.Metrics.observe "exec.sim_elapsed" r.elapsed;
        Obs.Metrics.incr ~by:r.events "exec.events";
        Obs.Metrics.incr ~by:s.blocks "exec.blocks";
        Obs.Metrics.incr ~by:(Comm.peak_requests s.comm) "exec.peak_requests";
        Obs.Metrics.incr ~by:(Comm.peak_messages s.comm) "exec.peak_messages";
        Obs.Metrics.incr ~by:(Comm.live_requests s.comm) "exec.live_requests";
        Obs.Metrics.incr ~by:(Comm.live_messages s.comm) "exec.live_messages";
        Obs.Metrics.incr ~by:r.messages "exec.messages";
        Obs.finish
          ~args:
            [
              ("sim_elapsed", Printf.sprintf "%.6f" r.elapsed);
              ("events", string_of_int r.events);
              ("messages", string_of_int r.messages);
            ]
          sp;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Obs.finish sp;
        Printexc.raise_with_backtrace e bt
  end
