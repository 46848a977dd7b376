let print ~title ~headers rows =
  let all = headers :: rows in
  let ncols = List.fold_left (fun acc row -> max acc (List.length row)) 0 all in
  let width col =
    List.fold_left
      (fun acc row -> match List.nth_opt row col with
         | Some cell -> max acc (String.length cell)
         | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad cell w = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
  let render row =
    List.mapi (fun i w -> pad (Option.value ~default:"" (List.nth_opt row i)) w) widths
    |> String.concat "  "
    |> String.trim
    |> fun line -> Format.printf "  %s@." line
  in
  let total = List.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Format.printf "@.%s@." title;
  Format.printf "  %s@." (String.make total '-');
  render headers;
  Format.printf "  %s@." (String.make total '-');
  List.iter render rows;
  Format.printf "  %s@." (String.make total '-')

let fmt_pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
