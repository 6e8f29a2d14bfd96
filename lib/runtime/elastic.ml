(* Elastic execution: ULFM-style shrink and grow of the simulated job.

   A fixed-nprocs simulator run compiles the job scale into the program
   IR, so the process count cannot change *inside* one [Exec.run].
   Elasticity is therefore modeled the way checkpoint-based MPI codes
   actually do it: the program declares its iteration range as
   parameters, and an elastic session is a sequence of *membership
   epochs* — one simulator run per epoch, each at its own communicator
   size, stitched together by a seeded recovery protocol at every
   membership boundary:

   - shrink: a rank fails at an iteration boundary; its surviving peers
     each detect the failure after a seeded timeout (the failure
     detector's jitter, drawn from the same splitmix64 family as every
     other fault), agree on the shrunk communicator in O(log p) rounds,
     and repartition the departed rank's state — an explicit
     repartitioning-cost event priced by {!Costmodel.repartition_cost}
     plus the network transfer of the migrated bytes;

   - grow: fresh ranks join at a program-declared rebalance point,
     receive their migrated share of the state, and the next epoch runs
     on the enlarged communicator.

   Everything is deterministic: same (plan, nprocs) ⇒ same membership
   timeline ⇒ the same epochs, recovery costs and stalls, byte for
   byte.  Ranks keep *global* identities across the whole session (an
   epoch's local rank [l] is global rank [members.(l)]), so profiles of
   different epochs merge into one per-global-rank artifact. *)

type change = Leave of { rank : int } | Join of { count : int }

type event = { at_iter : int; change : change }

type plan = {
  seed : int;
  total_iters : int;
  lo_param : string;  (* program parameter naming the first iteration *)
  hi_param : string;  (* one past the last iteration *)
  state_bytes : int;  (* per-rank partition migrated on a change *)
  detect_timeout : float;  (* failure-detector base timeout, seconds *)
  events : event list;
}

let plan ?(seed = 42) ?(lo_param = "iter_lo") ?(hi_param = "iter_hi")
    ?(state_bytes = 1 lsl 20) ?(detect_timeout = 1e-3) ~total_iters events =
  if total_iters < 1 then invalid_arg "Elastic.plan: total_iters must be >= 1";
  { seed; total_iters; lo_param; hi_param; state_bytes; detect_timeout; events }

let shrink_at ~iter ~rank = { at_iter = iter; change = Leave { rank } }
let grow_at ~iter ~ranks = { at_iter = iter; change = Join { count = ranks } }

(* --- membership timeline --- *)

type epoch = {
  e_index : int;
  e_lo : int;  (* iteration range [e_lo, e_hi) this epoch covers *)
  e_hi : int;
  e_members : int array;  (* local rank -> global rank id, ascending *)
  e_left : int list;  (* global ids that left at the boundary entering *)
  e_joined : int list;  (* global ids that joined at that boundary *)
}

(* Derive the epochs of one session.  Events are applied at their
   (clamped) iteration boundary; several events at the same boundary
   fold into one membership change.  A leave of a rank not currently
   present is ignored — the plan stays valid at every scale. *)
let membership t ~nprocs =
  if nprocs < 1 then invalid_arg "Elastic.membership: nprocs must be >= 1";
  let boundaries =
    List.filter_map
      (fun e ->
        let it = e.at_iter in
        if it <= 0 || it >= t.total_iters then None else Some it)
      t.events
    |> List.sort_uniq compare
  in
  let members = ref (List.init nprocs Fun.id) in
  let next_id = ref nprocs in
  let epochs = ref [] in
  let idx = ref 0 in
  let lo = ref 0 in
  let pending_left = ref [] and pending_joined = ref [] in
  let emit hi =
    (* keep an epoch only when at least one rank remains to run it *)
    if !members <> [] && hi > !lo then begin
      epochs :=
        {
          e_index = !idx;
          e_lo = !lo;
          e_hi = hi;
          e_members = Array.of_list !members;
          e_left = List.rev !pending_left;
          e_joined = List.rev !pending_joined;
        }
        :: !epochs;
      incr idx;
      pending_left := [];
      pending_joined := []
    end;
    lo := hi
  in
  List.iter
    (fun boundary ->
      let left = ref [] and joined = ref [] in
      let mem = ref !members in
      List.iter
        (fun e ->
          if e.at_iter = boundary then
            match e.change with
            | Leave { rank } ->
                if List.mem rank !mem then begin
                  mem := List.filter (fun g -> g <> rank) !mem;
                  left := rank :: !left
                end
            | Join { count } ->
                for _ = 1 to max 0 count do
                  mem := !mem @ [ !next_id ];
                  joined := !next_id :: !joined;
                  incr next_id
                done)
        t.events;
      (* a boundary where membership does not actually change (e.g. a
         leave of a rank this scale never had) splits no epoch *)
      if !left <> [] || !joined <> [] then begin
        emit boundary;
        members := !mem;
        pending_left := !left;
        pending_joined := !joined
      end)
    boundaries;
  emit t.total_iters;
  (List.rev !epochs, !next_id)

let total_ranks t ~nprocs = snd (membership t ~nprocs)

let is_static t ~nprocs =
  match fst (membership t ~nprocs) with [ _ ] | [] -> true | _ -> false

(* --- the recovery protocol at one membership boundary --- *)

type recovery = {
  r_iter : int;  (* the boundary iteration *)
  r_left : int list;
  r_joined : int list;
  r_detect : float;  (* window until the last survivor detected *)
  r_agree : float;  (* shrink/join agreement on the new communicator *)
  r_repartition : float;  (* slowest rank's state migration + re-touch *)
  r_stalls : (int * float) list;
      (* surviving global rank -> seconds stalled in recovery *)
  r_end : float;  (* absolute simulated time the next epoch starts at *)
}

(* Seeded per-rank failure-detection delay: the base timeout plus up to
   one extra timeout of deterministic jitter, keyed like every other
   fault draw. *)
let detection_delay t ~nprocs ~iter ~rank =
  t.detect_timeout
  *. (1.0 +. Faults.draw [ t.seed; iter; nprocs; rank; 0x31ec ])

(* Run the recovery protocol entering the epoch whose members are
   [members]: [finish] gives the previous epoch's per-global-rank finish
   times, [left]/[joined] the membership change at this boundary. *)
let recover t ~(cost : Costmodel.t) ~(net : Network.t) ~nprocs ~iter ~left
    ~joined ~(members : int array) ~finish =
  let survivors =
    List.filter (fun (g, _) -> not (List.mem g left)) finish
  in
  let new_np = Array.length members in
  (* a shrink is *detected*; a grow is a planned rebalance with no
     failure-detection window *)
  let ready =
    List.map
      (fun (g, fin) ->
        if left <> [] then
          (g, fin +. detection_delay t ~nprocs ~iter ~rank:g)
        else (g, fin))
      survivors
  in
  let t_sync = List.fold_left (fun acc (_, r) -> Float.max acc r) 0.0 ready in
  let detect =
    List.fold_left
      (fun acc ((_, r), (_, fin)) -> Float.max acc (r -. fin))
      0.0
      (List.combine ready survivors)
  in
  (* agreement: a reduce + broadcast tree over the new communicator *)
  let agree =
    2.0 *. net.Network.latency *. float_of_int (Network.log2_ceil new_np)
  in
  (* repartition: the departed partitions (resp. the joiners' shares)
     move over the network and every member re-touches its share *)
  let moved = t.state_bytes * (List.length left + List.length joined) in
  let share = moved / max 1 new_np in
  let xfer = Network.transfer_time net share in
  let repartition =
    Array.fold_left
      (fun acc g ->
        Float.max acc (xfer +. Costmodel.repartition_cost cost ~rank:g ~bytes:share))
      0.0 members
  in
  let r_end = t_sync +. agree +. repartition in
  let r_stalls =
    List.map (fun (g, fin) -> (g, Float.max 0.0 (r_end -. fin))) survivors
  in
  {
    r_iter = iter;
    r_left = left;
    r_joined = joined;
    r_detect = detect;
    r_agree = agree;
    r_repartition = repartition;
    r_stalls;
    r_end;
  }

(* --- the session summary carried to detection and reporting --- *)

type epoch_info = {
  ei_nprocs : int;
  ei_lo : int;
  ei_hi : int;
  ei_members : int array;
  ei_t0 : float;  (* absolute simulated span of the epoch *)
  ei_t1 : float;
}

type info = {
  nominal : int;  (* the requested job scale *)
  n_ranks : int;  (* distinct global ranks over the whole session *)
  effective : float;  (* time-weighted mean membership *)
  elapsed : float;
  epoch_infos : epoch_info list;
  recoveries : recovery list;
}

(* Time-weighted mean membership over the epochs — the *effective*
   process count the log-log fits should see instead of the nominal
   scale. *)
let effective_nprocs epoch_infos =
  let num, den =
    List.fold_left
      (fun (num, den) e ->
        let d = Float.max 0.0 (e.ei_t1 -. e.ei_t0) in
        (num +. (float_of_int e.ei_nprocs *. d), den +. d))
      (0.0, 0.0) epoch_infos
  in
  if den > 0.0 then num /. den
  else
    match epoch_infos with
    | e :: _ -> float_of_int e.ei_nprocs
    | [] -> 0.0

let recovery_seconds i =
  List.fold_left
    (fun acc r -> acc +. r.r_detect +. r.r_agree +. r.r_repartition)
    0.0 i.recoveries

(* Every rank that left, and every rank that joined, over the session. *)
let membership_changes i =
  ( List.concat_map (fun r -> r.r_left) i.recoveries,
    List.concat_map (fun r -> r.r_joined) i.recoveries )

(* "0-3,5,7-8": members lists compressed into ranges for reports. *)
let compress_ranks (ranks : int array) =
  let n = Array.length ranks in
  let buf = Buffer.create 16 in
  let emit lo hi =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if lo = hi then Buffer.add_string buf (string_of_int lo)
    else Buffer.add_string buf (Printf.sprintf "%d-%d" lo hi)
  in
  let rec go i lo =
    if i >= n then emit lo ranks.(n - 1)
    else if ranks.(i) = ranks.(i - 1) + 1 then go (i + 1) lo
    else begin
      emit lo ranks.(i - 1);
      go (i + 1) ranks.(i)
    end
  in
  if n = 0 then "none"
  else begin
    go 1 ranks.(0);
    Buffer.contents buf
  end
