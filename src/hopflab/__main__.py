from hopflab.cli import main

main(prog_name="hopflab")
