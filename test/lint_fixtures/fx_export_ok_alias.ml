module Space = Fx_export_ok
