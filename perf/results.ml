(* Result files, BENCHMARK.json, and the comparison of two result sets. *)

open Obs.Json

let metric_json (m : Run_ctx.metric) =
  Obj [ ("value", Float m.Run_ctx.value); ("unit", Str m.Run_ctx.unit_) ]

(* The one-line verdict a run ends with. *)
let line (o : Run_ctx.outcome) =
  to_string ~minify:true
    (Obj
       [ ("correct", Bool (o.Run_ctx.failed = 0));
         ("attempted", Int o.Run_ctx.attempted);
         ("failed", Int o.Run_ctx.failed);
         ("metrics", Obj (List.map (fun m -> (m.Run_ctx.name, metric_json m)) o.Run_ctx.metrics)) ])

let outcome_json (o : Run_ctx.outcome) =
  Obj
    [ ("workload", Str (Workload.to_string o.Run_ctx.workload));
      ("seed", Int o.Run_ctx.seed);
      ("traced", Bool o.Run_ctx.traced);
      ("attempted", Int o.Run_ctx.attempted);
      ("failed", Int o.Run_ctx.failed);
      ("errors", List (List.map (fun e -> Str e) o.Run_ctx.errors));
      ("inputs_md5", Str o.Run_ctx.md5);
      ("metrics", Obj (List.map (fun m -> (m.Run_ctx.name, metric_json m)) o.Run_ctx.metrics));
      ( "samples",
        Obj (List.map (fun (k, l) -> (k, List (List.map (fun v -> Float v) l))) o.Run_ctx.samples) ) ]

let write path outcomes =
  Workload.write_file path
    (to_string (Obj [ ("schema", Int 1); ("runs", List (List.map outcome_json outcomes)) ]) ^ "\n")

(* A run as read back: workload, traced flag, attempted, failed and the
   metric values by name. *)
type run = {
  r_workload : string;
  r_traced : bool;
  r_attempted : int;
  r_failed : int;
  r_metrics : (string * float) list;
}

let num = function Int i -> float_of_int i | Float f -> f | _ -> nan

let read path =
  let j = Run_ctx.json_file path in
  let str k o = match member k o with Some (Str s) -> s | _ -> failwith (path ^ ": missing " ^ k) in
  let int k o = match member k o with Some v -> int_of_float (num v) | None -> 0 in
  match member "runs" j with
  | Some (List runs) ->
      List.map
        (fun o ->
          {
            r_workload = str "workload" o;
            r_traced = member "traced" o = Some (Bool true);
            r_attempted = int "attempted" o;
            r_failed = int "failed" o;
            r_metrics =
              (match member "metrics" o with
              | Some (Obj ms) ->
                  List.map
                    (fun (k, v) -> (k, match member "value" v with Some x -> num x | None -> nan))
                    ms
              | _ -> []);
          })
        runs
  | _ -> failwith (path ^ ": not a nexperf result file")

(* ---- BENCHMARK.json ---- *)

type spec = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type benchmark = {
  end_to_end : spec list;
  per_layer : spec list;
}

let read_benchmark path =
  let j = Run_ctx.json_file path in
  let specs key =
    match member key j with
    | Some (List l) ->
        List.map
          (fun o ->
            let s k = match member k o with Some (Str s) -> s | _ -> failwith (path ^ ": bad " ^ key) in
            {
              name = s "name";
              unit_ = s "unit";
              higher_is_better = s "better" = "higher";
              bound = Option.map num (member "bound" o);
            })
          l
    | _ -> failwith (path ^ ": missing " ^ key)
  in
  { end_to_end = specs "end_to_end"; per_layer = specs "per_layer" }

(* ---- compare ---- *)

type verdict =
  | Improved
  | Unchanged
  | Regressed
  | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

(* One (workload, metric) pair.  The change is the relative move of the
   new median, signed so that positive is worse.  A side whose
   interquartile spread exceeds the bound cannot resolve a move of the
   bound's size: unresolved, unless every new run beats every base run. *)
let judge spec ~bound base news =
  let worse a b = if spec.higher_is_better then a < b else a > b in
  let mb = Stats.median base and mn = Stats.median news in
  let change = if spec.higher_is_better then (mb -. mn) /. mb else (mn -. mb) /. mb in
  let change = if mb = mn then 0. else change in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> worse b n) base) news in
  let v =
    if Stats.spread base > bound || Stats.spread news > bound then
      if all_better then Improved else Unresolved
    else if change > bound then Regressed
    else if change < -.bound then Improved
    else Unchanged
  in
  (v, mb, mn, change)

let compare ~benchmark base_path new_path =
  let base = read base_path and news = read new_path in
  let untraced l = List.filter (fun r -> not r.r_traced) l in
  let base = untraced base and news = untraced news in
  let workloads =
    List.sort_uniq Stdlib.compare (List.map (fun r -> r.r_workload) (base @ news))
  in
  Printf.printf "%-8s %-16s %14s %14s %9s %8s %8s  %s\n" "workload" "metric" "base median"
    "new median" "change" "spread" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      let of_w l = List.filter (fun r -> r.r_workload = w) l in
      let bw = of_w base and nw = of_w news in
      List.iter
        (fun spec ->
          let values l =
            List.filter_map
              (fun r -> Option.bind (List.assoc_opt spec.name r.r_metrics) (fun v -> if Float.is_finite v then Some v else None))
              l
          in
          match (values bw, values nw, spec.bound) with
          | (_ :: _ as b), (_ :: _ as n), Some bound ->
              let v, mb, mn, change = judge spec ~bound b n in
              if v = Regressed then incr bad;
              Printf.printf "%-8s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %7.1f%%  %s\n" w spec.name mb mn
                (100. *. change)
                (100. *. Float.max (Stats.spread b) (Stats.spread n))
                (100. *. bound) (verdict_to_string v)
          | _ -> ())
        benchmark.end_to_end;
      let rate l =
        let a = List.fold_left (fun s r -> s + r.r_attempted) 0 l
        and f = List.fold_left (fun s r -> s + r.r_failed) 0 l in
        if a = 0 then 0. else float_of_int f /. float_of_int a
      in
      let rb = rate bw and rn = rate nw in
      let v = if rn > rb then (incr bad; "REGRESSED") else "unchanged" in
      Printf.printf "%-8s %-16s %14.6g %14.6g %9s %8s %8s  %s\n" w "error_rate" rb rn "" "" "0" v)
    workloads;
  !bad
