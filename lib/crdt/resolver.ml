type t =
  | Lww
  | Owner_report
  | App_merge of (string -> string -> string)
