let recorded : string list ref = ref []
let installed = ref false

let check_session (s : Nexsort.Session.t) =
  let out = ref [] in
  let used = Extmem.Memory_budget.used_blocks s.budget in
  if used <> 0 then begin
    let holders =
      Extmem.Memory_budget.holders s.budget
      |> List.map (fun (who, n) -> Printf.sprintf "%s=%d" who n)
      |> String.concat ", "
    in
    out := Printf.sprintf "budget leak: %d blocks still reserved (%s)" used holders :: !out
  end;
  Extmem.Frame_arena.owners s.arena
  |> List.iter (fun (who, st) ->
         if st.Extmem.Frame_arena.held <> 0 then
           out :=
             Printf.sprintf "arena leak: owner %S still holds %d frames" who
               st.Extmem.Frame_arena.held
             :: !out);
  List.rev !out

let install () =
  if not !installed then begin
    installed := true;
    Nexsort.Session.add_destroy_probe (fun s ->
        recorded := !recorded @ check_session s)
  end

let violations () = !recorded
let clear () = recorded := []
