(* Strategies for merging a vertex's per-rank metric into one value
   (Section IV-A discusses single-process, mean/median + variance, and
   clustering-based merging; all are implemented and compared in the
   ablation bench). *)

type strategy =
  | Single of int  (* one representative rank *)
  | Mean
  | Median
  | Variance_weighted  (* mean + variance penalty, surfaces imbalance *)
  | Kmeans of int  (* centroid of the heaviest cluster *)

let strategy_name = function
  | Single r -> Printf.sprintf "single(%d)" r
  | Mean -> "mean"
  | Median -> "median"
  | Variance_weighted -> "variance"
  | Kmeans k -> Printf.sprintf "kmeans(%d)" k

(* Poisoned values (NaN from a broken counter, negative garbage) are
   quarantined before any merging: [sanitize] returns the surviving
   values and how many were dropped.  Clean input comes back physically
   unchanged, so the no-fault paths behave exactly as before. *)
let quarantined x = Float.is_nan x || x < 0.0

let sanitize a =
  if Array.exists quarantined a then begin
    let keep =
      Array.to_list a |> List.filter (fun x -> not (quarantined x))
    in
    (Array.of_list keep, Array.length a - List.length keep)
  end
  else (a, 0)

let median a =
  let a, _ = sanitize a in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0
  end

(* 1-D k-means (Lloyd's algorithm, deterministic seeding at quantiles). *)
let kmeans ~k a =
  let n = Array.length a in
  if n = 0 || k <= 0 then [||]
  else begin
    let k = min k n in
    let sorted = Array.copy a in
    Array.sort compare sorted;
    let centroids =
      Array.init k (fun i -> sorted.(min (n - 1) (i * n / k + (n / (2 * k)))))
    in
    let assign = Array.make n 0 in
    let changed = ref true in
    let iters = ref 0 in
    while !changed && !iters < 100 do
      changed := false;
      incr iters;
      for i = 0 to n - 1 do
        let best = ref 0 and bestd = ref infinity in
        for c = 0 to k - 1 do
          let d = abs_float (a.(i) -. centroids.(c)) in
          if d < !bestd then begin
            bestd := d;
            best := c
          end
        done;
        if assign.(i) <> !best then begin
          assign.(i) <- !best;
          changed := true
        end
      done;
      for c = 0 to k - 1 do
        let sum = ref 0.0 and cnt = ref 0 in
        for i = 0 to n - 1 do
          if assign.(i) = c then begin
            sum := !sum +. a.(i);
            incr cnt
          end
        done;
        if !cnt > 0 then centroids.(c) <- !sum /. float_of_int !cnt
      done
    done;
    let sizes = Array.make k 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) assign;
    Array.init k (fun c -> (centroids.(c), sizes.(c)))
  end

(* --- slice statistics ---

   Computed directly over a columnar row slice [off, off + len) without
   materializing the per-vertex array first.  Every scan visits cells in
   rank order, the order [sanitize] keeps its survivors in, so a slice
   statistic equals the same statistic of the copied, sanitized row —
   the property the differential suite and the golden reports pin. *)

let quarantined_in_slice col ~off ~len =
  let n = ref 0 in
  for i = off to off + len - 1 do
    if quarantined col.(i) then incr n
  done;
  !n

(* Survivors gathered in rank order: the slice analogue of [sanitize],
   always a fresh array. *)
let sanitize_slice col ~off ~len =
  let dropped = quarantined_in_slice col ~off ~len in
  if dropped = 0 then (Array.sub col off len, 0)
  else begin
    let keep = Array.make (len - dropped) 0.0 in
    let j = ref 0 in
    for i = off to off + len - 1 do
      if not (quarantined col.(i)) then begin
        keep.(!j) <- col.(i);
        incr j
      end
    done;
    (keep, dropped)
  end

(* Sum of the surviving cells — [Array.fold_left (+.) 0.0] over the
   sanitized row, without the row. *)
let sum_clean_slice col ~off ~len =
  let acc = ref 0.0 in
  for i = off to off + len - 1 do
    let x = col.(i) in
    if not (quarantined x) then acc := !acc +. x
  done;
  !acc

(* Largest surviving cell, 0.0 floor (the abnormal detector's scan). *)
let max_clean_slice col ~off ~len =
  let acc = ref 0.0 in
  for i = off to off + len - 1 do
    let x = col.(i) in
    if not (quarantined x) then acc := Float.max !acc x
  done;
  !acc

let mean_slice col ~off ~len =
  let sum = ref 0.0 and n = ref 0 in
  for i = off to off + len - 1 do
    let x = col.(i) in
    if not (quarantined x) then begin
      sum := !sum +. x;
      incr n
    end
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let median_slice col ~off ~len =
  median (fst (sanitize_slice col ~off ~len))

let variance_slice col ~off ~len =
  let m = mean_slice col ~off ~len in
  let acc = ref 0.0 and n = ref 0 in
  for i = off to off + len - 1 do
    let x = col.(i) in
    if not (quarantined x) then begin
      acc := !acc +. ((x -. m) *. (x -. m));
      incr n
    end
  done;
  if !n = 0 then 0.0 else !acc /. float_of_int !n

(* [apply] over a columnar row slice, without the row copy.  For the
   order-insensitive strategies the scan runs in place; Median and
   Kmeans gather the survivors first (they need a sortable array). *)
let apply_slice strategy col ~off ~len =
  match strategy with
  | Single r ->
      if r < len && not (quarantined col.(off + r)) then col.(off + r)
      else 0.0
  | Mean -> mean_slice col ~off ~len
  | Median -> median_slice col ~off ~len
  | Variance_weighted ->
      mean_slice col ~off ~len +. sqrt (variance_slice col ~off ~len)
  | Kmeans k -> (
      let clusters = kmeans ~k (fst (sanitize_slice col ~off ~len)) in
      (* centroid of the heaviest (largest-time) populated cluster: the
         "busy group" drives the scaling behaviour *)
      match
        Array.fold_left
          (fun acc (c, n) ->
            match acc with
            | None -> if n > 0 then Some (c, n) else None
            | Some (bc, _) -> if n > 0 && c > bc then Some (c, n) else acc)
          None clusters
      with
      | Some (c, _) -> c
      | None -> 0.0)

(* The whole-array statistics are the slice ones over [0, length). *)
let whole f a = f a ~off:0 ~len:(Array.length a)
let mean a = whole mean_slice a
let variance a = whole variance_slice a
let stddev a = sqrt (variance a)
let apply strategy values = whole (apply_slice strategy) values
