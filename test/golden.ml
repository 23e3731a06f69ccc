(* Golden files: one line per case, compared byte for byte.  On a
   mismatch the current lines are written next to the test binary
   (under _build) as [<file>.actual], so an intended change can be
   reviewed with diff and committed.  Lines start with the case name and
   a tab. *)

let check ~what file actual =
  let expected =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if actual <> expected then begin
    let out = file ^ ".actual" in
    Out_channel.with_open_bin out (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let name l = List.hd (String.split_on_char '\t' l) in
    let differing =
      if List.length actual <> List.length expected then
        Printf.sprintf "%d lines, expected %d" (List.length actual)
          (List.length expected)
      else
        List.combine actual expected
        |> List.filter (fun (a, e) -> a <> e)
        |> List.map (fun (a, _) -> name a)
        |> String.concat ", "
    in
    Alcotest.failf "%s differ from %s (%s); current lines in %s" what file
      differing out
  end
