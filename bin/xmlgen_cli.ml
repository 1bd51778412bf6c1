(* nexsort-gen: generate synthetic XML workloads (§5 of the paper). *)

open Cmdliner

(* Run [gen] and write the result to [output].  With [--device] the
   generator streams straight into the output endpoint: a device over the
   output file under the spec's layers. *)
let emit device metrics output gen =
  let stats, dev_io =
    match device with
    | None ->
        let s, stats = Xmlgen.Gen.to_string gen in
        Cli_common.write_file output s;
        (stats, None)
    | Some spec ->
        let config = Nexsort.Config.make ~block_size:4096 ~device:spec () in
        Nexsort.Config.with_output config output (fun b ->
            let dev = b.Extmem.Device_spec.device in
            let stats = Xmlgen.Gen.to_device dev gen in
            (stats, Some (Extmem.Io_stats.snapshot (Extmem.Device.stats dev))))
  in
  Cli_common.write_metrics metrics
    (let rep = Obs.Report.create ~tool:"nexsort-gen" in
     Obs.Report.add rep "gen"
       (Obs.Json.Obj
          [ ("elements", Obs.Json.Int stats.Xmlgen.Gen.elements);
            ("height", Obs.Json.Int stats.Xmlgen.Gen.height);
            ("bytes", Obs.Json.Int stats.Xmlgen.Gen.bytes) ]);
     (match dev_io with
     | Some io -> Obs.Report.add rep "io" (Obs.Json.Obj [ ("device", Obs.Json.io_stats io) ])
     | None -> ());
     rep);
  Printf.eprintf "wrote %s: %d elements, height %d, %d bytes\n" output
    stats.Xmlgen.Gen.elements stats.Xmlgen.Gen.height stats.Xmlgen.Gen.bytes;
  `Ok ()

let run seed avg_bytes height max_fanout max_elements fanouts company device metrics output =
  match (company, fanouts) with
  | true, _ when device <> None ->
      `Error (false, "--device is not supported with --company")
  | true, _ ->
      let pair = Xmlgen.Company.generate ~seed () in
      Cli_common.write_file (output ^ ".personnel.xml") pair.Xmlgen.Company.personnel;
      Cli_common.write_file (output ^ ".payroll.xml") pair.Xmlgen.Company.payroll;
      Cli_common.write_metrics metrics
        (let rep = Obs.Report.create ~tool:"nexsort-gen" in
         Obs.Report.add rep "company"
           (Obs.Json.Obj
              [ ("personnel_bytes", Obs.Json.Int (String.length pair.Xmlgen.Company.personnel));
                ("payroll_bytes", Obs.Json.Int (String.length pair.Xmlgen.Company.payroll)) ]);
         rep);
      Printf.eprintf "wrote %s.personnel.xml and %s.payroll.xml\n" output output;
      `Ok ()
  | false, Some fanouts ->
      emit device metrics output (fun sink -> Xmlgen.Gen.exact_shape ~seed ~avg_bytes ~fanouts sink)
  | false, None ->
      emit device metrics output (fun sink ->
          Xmlgen.Gen.random_shape ~seed ~avg_bytes ~max_elements ~height ~max_fanout sink)

let fanouts_term =
  let parse s =
    try Ok (Some (List.map int_of_string (String.split_on_char ',' s)))
    with Failure _ -> Error (`Msg "expected a comma-separated list of integers")
  in
  Arg.(
    value
    & opt (conv (parse, fun ppf _ -> Format.pp_print_string ppf "<fanouts>")) None
    & info [ "fanouts" ] ~docv:"F1,F2,..."
        ~doc:
          "Exact per-level fan-outs (the paper's custom generator, Table 2).  Overrides \
           $(b,--height)/$(b,--max-fanout).")

let cmd =
  let doc = "generate synthetic XML documents (IBM-generator-style and exact-shape)" in
  let info = Cmd.info "nexsort-gen" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run
        $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
        $ Arg.(
            value & opt int 150
            & info [ "avg-bytes" ] ~docv:"N" ~doc:"Average serialized element size (paper: 150).")
        $ Arg.(value & opt int 4 & info [ "height" ] ~docv:"H" ~doc:"Tree height (random shape).")
        $ Arg.(
            value & opt int 10
            & info [ "max-fanout"; "k" ] ~docv:"K"
                ~doc:"Maximum fan-out; per-element fan-out is uniform in [1, K].")
        $ Arg.(
            value & opt int 100_000
            & info [ "max-elements" ] ~docv:"N" ~doc:"Stop growing the tree at N elements.")
        $ fanouts_term
        $ Arg.(
            value & flag
            & info [ "company" ]
                ~doc:"Generate the Figure 1 personnel/payroll document pair instead.")
        $ Cli_common.device_term
        $ Cli_common.metrics_term
        $ Arg.(
            value & opt string "generated.xml" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")))

let () = exit (Cmd.eval cmd)
